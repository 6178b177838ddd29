"""Walk-count vectors and the ranking rules driving selection order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen.ranking
from kcoarsen import Ranking, build, resolve_ranking
from kcoarsen._propagate import neighbor_reduce
from kcoarsen.ranking import load_scores, walk_counts

from . import helpers


def test_walk_counts_path3_frozen():
    g = build(helpers.path_edges(3))
    assert walk_counts(g, [1.0, 1.0, 1.0], 1).tolist() == [2.0, 3.0, 2.0]
    assert walk_counts(g, [1.0, 1.0, 1.0], 2).tolist() == [5.0, 7.0, 5.0]


def test_walk_counts_k_zero_is_identity():
    g = build(helpers.path_edges(3))
    x = [0.5, 2.0, 3.25]
    assert walk_counts(g, x, 0).tolist() == x


def test_walk_counts_isolated_node():
    g = build([(0, 1)], n=3)
    assert walk_counts(g, [1.0, 1.0, 7.0], 3)[2] == 7.0


def test_walk_counts_rejects_bad_length():
    g = build(helpers.path_edges(3))
    with pytest.raises(ValueError):
        walk_counts(g, [1.0, 1.0], 1)


def test_walk_counts_matches_dense_reference(small_corpus):
    for g, edges, n in small_corpus[:10]:
        rng = helpers.make_rng("walk", n)
        x = helpers.dyadic_weights(rng, n)
        for k in (1, 2, 3):
            got = walk_counts(g, x, k)
            assert got.tolist() == helpers.walk_vector(n, edges, x, k)


def test_walk_counts_worker_count_is_bitwise_invariant(small_corpus):
    for g, edges, n in small_corpus[:6]:
        rng = helpers.make_rng("workers", n)
        x = helpers.dyadic_weights(rng, n)
        base = walk_counts(g, x, 3, workers=1)
        for workers in (2, 5, 16):
            assert np.array_equal(walk_counts(g, x, 3, workers=workers), base)


def test_walk_overestimates_ball_weight(small_corpus):
    for g, edges, n in small_corpus[:8]:
        adj = helpers.adjacency(n, edges)
        rng = helpers.make_rng("ball", n)
        x = helpers.dyadic_weights(rng, n)
        for k in (1, 2):
            walk = walk_counts(g, x, k)
            for v in range(n):
                assert walk[v] >= sum(x[u] for u in helpers.ball(adj, v, k))


def test_walk_monotone_in_k(small_corpus):
    g, _, n = small_corpus[0]
    x = [1.0] * n
    prev = walk_counts(g, x, 0)
    for k in (1, 2, 3, 4):
        cur = walk_counts(g, x, k)
        assert (cur >= prev).all()
        prev = cur


def test_degree_rule_star_picks_leaves_first():
    g = build(helpers.star_edges(4))
    rank = resolve_ranking(g, "kdeg", k=1, weights=[1.0] * 4).rank
    assert rank.tolist() == [3, 0, 1, 2]


def test_degree_rule_path_frozen():
    g = build(helpers.path_edges(3))
    rank = resolve_ranking(g, "kdeg", k=1, weights=[9.0, 1.0, 9.0]).rank
    assert rank.tolist() == [0, 2, 1]


def test_weight_rule_heavy_center_first():
    g = build(helpers.star_edges(4))
    rank = resolve_ranking(g, "kweight", k=1,
                           weights=[10.0, 1.0, 1.0, 1.0]).rank
    assert rank.tolist() == [0, 1, 2, 3]


def test_degree_rule_on_regular_graph_is_id_order():
    g = build(helpers.cycle_edges(7))
    rank = resolve_ranking(g, "kdeg", k=2, weights=[1.0] * 7).rank
    assert rank.tolist() == list(range(7))


def test_from_scores_frozen():
    r = Ranking.from_scores([3.0, 1.0, 2.0, 1.0])
    assert r.rank.tolist() == [3, 0, 2, 1]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=80)
def test_from_scores_is_permutation(scores):
    r = Ranking.from_scores(scores)
    assert sorted(r.rank.tolist()) == list(range(len(scores)))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20))
@settings(max_examples=60)
def test_from_scores_respects_score_order(scores):
    r = Ranking.from_scores(scores).rank
    n = len(scores)
    for u in range(n):
        for v in range(u + 1, n):
            if scores[u] < scores[v]:
                assert r[u] < r[v]
            elif scores[u] == scores[v]:
                assert r[u] < r[v]  # id breaks ties


def test_ranking_validate():
    Ranking(np.array([2, 0, 1])).validate(3)
    with pytest.raises(ValueError):
        Ranking(np.array([0, 0, 1])).validate(3)
    with pytest.raises(ValueError):
        Ranking(np.array([0, 1])).validate(3)


def test_rank_static_kinds():
    g4 = build(helpers.path_edges(4))
    assert resolve_ranking(g4, "id").rank.tolist() == [0, 1, 2, 3]
    assert resolve_ranking(g4, "const").rank.tolist() == [0, 1, 2, 3]
    g6 = build(helpers.cycle_edges(6))
    a = resolve_ranking(g6, "random", seed=3).rank
    b = resolve_ranking(g6, "random", seed=3).rank
    assert a.tolist() == b.tolist()
    assert a.tolist() == np.random.default_rng(3).permutation(6).tolist()
    assert sorted(a.tolist()) == list(range(6))
    assert resolve_ranking(g6, "random", seed=4).rank.tolist() != a.tolist()


def test_rank_static_external_prefers_high_scores(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("1.0\n5.0\n5.0\n0.0\n")
    r = resolve_ranking(build(helpers.path_edges(4)), f"file:{p}")
    assert r.rank.tolist() == [2, 0, 1, 3]


def test_rank_static_rejects(tmp_path):
    g = build(helpers.path_edges(3))
    with pytest.raises(ValueError, match="unknown"):
        resolve_ranking(g, "zigzag")
    p = tmp_path / "scores.txt"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match="2 entries"):
        resolve_ranking(g, f"file:{p}")


def test_load_scores(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("# header\n1.5\n2\n% note\n0.25\n")
    assert load_scores(p).tolist() == [1.5, 2.0, 0.25]


def test_load_scores_bad_line(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("1.0\nnope\n")
    with pytest.raises(ValueError, match="line 2"):
        load_scores(p)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_scores_rejects_non_finite(tmp_path, text):
    p = tmp_path / "scores.txt"
    p.write_text(f"1.0\n{text}\n")
    with pytest.raises(ValueError, match="line 2"):
        load_scores(p)


def test_walk_counts_overflow_raises():
    # (A + I)^250 1 on a 1,000-leaf star exceeds float64; all-inf counts
    # would turn every kdeg score into 0 and the order into id order
    g = build(helpers.star_edges(1001))
    with pytest.raises(ValueError, match="overflow"):
        walk_counts(g, np.ones(g.n), 250)
    with pytest.raises(ValueError, match="overflow"):
        resolve_ranking(g, "kdeg", k=250)


def test_walk_counts_stop_at_overflow_or_a_fixed_point(monkeypatch):
    # (A + I) 1 at most triples on a path, so its counts pass float64
    # within ~650 rounds of the 10**9 asked; an edgeless graph's first
    # round changes nothing.  The spy stops a run that sweeps on regardless.
    sweeps = []

    def spy(*args, **kwargs):
        sweeps.append(kwargs.get("rows"))
        if len(sweeps) > 2000:
            raise AssertionError("walk_counts swept past the overflow")
        return neighbor_reduce(*args, **kwargs)

    monkeypatch.setattr(kcoarsen.ranking, "neighbor_reduce", spy)
    path = build(helpers.path_edges(5))
    with pytest.raises(ValueError, match="overflow"):
        walk_counts(path, np.ones(5), 10**9)
    assert len(sweeps) <= 1100
    sweeps.clear()
    assert walk_counts(build([], n=4), np.ones(4), 10**9).tolist() == [1.0] * 4
    assert len(sweeps) <= 2
    sweeps.clear()
    assert walk_counts(path, np.ones(5), 2).tolist() == [5.0, 8.0, 9.0, 8.0, 5.0]
    assert len(sweeps) == 2


def test_walk_counts_overflow_on_worker_threads_raises_only_value_error():
    # pytest turns warnings into errors here, so a RuntimeWarning would
    # surface instead of the ValueError, at any worker count
    g = build(helpers.star_edges(1001))
    with pytest.raises(ValueError, match="overflow"):
        walk_counts(g, np.ones(g.n), 250, workers=2)


def test_resolve_ranking_specs():
    g = build(helpers.star_edges(4))
    assert resolve_ranking(g, "id").rank.tolist() == [0, 1, 2, 3]
    assert resolve_ranking(g, "kdeg", k=1).rank.tolist() == [3, 0, 1, 2]
    kw = resolve_ranking(g, "kweight", k=1, weights=[10.0, 1.0, 1.0, 1.0])
    assert kw.rank.tolist() == [0, 1, 2, 3]
    passthrough = Ranking(np.array([1, 0, 2, 3]))
    assert resolve_ranking(g, passthrough) is passthrough
    with pytest.raises(ValueError):
        resolve_ranking(g, "kdeg")  # k missing
    with pytest.raises(ValueError):
        resolve_ranking(g, "mystery")


def test_resolve_ranking_random_seeded():
    g = build(helpers.cycle_edges(8))
    a = resolve_ranking(g, "random", seed=11).rank
    b = resolve_ranking(g, "random", seed=11).rank
    assert a.tolist() == b.tolist()
