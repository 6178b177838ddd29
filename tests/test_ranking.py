"""Walk-count vectors and the ranking rules driving selection order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen.ranking
from kcoarsen import build, cluster, coarsen_pipeline, k_mis, resolve_ranking
from kcoarsen._propagate import neighbor_reduce
from kcoarsen.ranking import (_from_scores, as_ranking, load_scores,
                               walk_counts)

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
    rank = resolve_ranking(g, "kdeg", k=1, weights=[1.0] * 4)
    assert rank.tolist() == [3, 0, 1, 2]


def test_degree_rule_path_frozen():
    g = build(helpers.path_edges(3))
    rank = resolve_ranking(g, "kdeg", k=1, weights=[9.0, 1.0, 9.0])
    assert rank.tolist() == [0, 2, 1]


def test_weight_rule_heavy_center_first():
    g = build(helpers.star_edges(4))
    rank = resolve_ranking(g, "kweight", k=1,
                           weights=[10.0, 1.0, 1.0, 1.0])
    assert rank.tolist() == [0, 1, 2, 3]


def test_degree_rule_on_regular_graph_is_id_order():
    g = build(helpers.cycle_edges(7))
    rank = resolve_ranking(g, "kdeg", k=2, weights=[1.0] * 7)
    assert rank.tolist() == list(range(7))


def test_from_scores_frozen():
    assert _from_scores([3.0, 1.0, 2.0, 1.0]).tolist() == [3, 0, 2, 1]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=80)
def test_from_scores_is_permutation(scores):
    assert sorted(_from_scores(scores).tolist()) == list(range(len(scores)))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20))
@settings(max_examples=60)
def test_from_scores_respects_score_order(scores):
    r = _from_scores(scores)
    n = len(scores)
    for u in range(n):
        for v in range(u + 1, n):
            if scores[u] < scores[v]:
                assert r[u] < r[v]
            elif scores[u] == scores[v]:
                assert r[u] < r[v]  # id breaks ties


def test_ranking_validate():
    assert as_ranking(np.array([2, 0, 1]), 3).tolist() == [2, 0, 1]
    with pytest.raises(ValueError, match="permutation of 0..n-1"):
        as_ranking(np.array([0, 0, 1]), 3)
    with pytest.raises(ValueError, match="covers 2 nodes, graph has 3"):
        as_ranking(np.array([0, 1]), 3)


def test_a_rank_array_that_is_not_integer_is_rejected():
    """A float ranking is not truncated to integers: [0.5, 1.7, 2.2] read
    as [0, 1, 2] and selected as the id ranking would."""
    g = build(helpers.path_edges(3))
    scores = np.array([0.5, 1.7, 2.2])
    for rank in (scores, np.array([0.0, 1.0, 2.0]), np.array([True, False, True])):
        with pytest.raises(ValueError, match="integers"):
            as_ranking(rank, 3)
        with pytest.raises(ValueError, match="integers"):
            resolve_ranking(g, rank)
        with pytest.raises(ValueError, match="integers"):
            k_mis(g, 1, rank)
        with pytest.raises(ValueError, match="integers"):
            cluster(g, 1, rank, [1])


@pytest.mark.parametrize("rank", [[-1, 0, 1], [0, 1, 3], [1, 2, 3],
                                  [-3, -2, -1]])
def test_an_out_of_range_rank_names_the_permutation(rank):
    g = build(helpers.path_edges(3))
    for call in (lambda r: as_ranking(r, 3), lambda r: k_mis(g, 1, r)):
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            call(np.array(rank))


def test_a_callers_rank_array_keeps_its_values_and_flag():
    """as_ranking hands back a valid int64 array itself, uncopied and
    writeable; resolve_ranking, k_mis, cluster and the pipeline leave it
    as it was.  Other integer dtypes come back as int64 copies."""
    g = build(helpers.path_edges(5))
    rank = np.array([4, 3, 2, 1, 0], dtype=np.int64)
    assert as_ranking(rank, 5) is rank
    assert resolve_ranking(g, rank, k=1) is rank
    selected = k_mis(g, 1, rank).selected
    assert cluster(g, 1, rank, selected).tolist() == [0, 2, 2, 4, 4]
    coarsen_pipeline(g, 1, ranking=rank)
    assert rank.flags.writeable and rank.tolist() == [4, 3, 2, 1, 0]
    small = rank.astype(np.int32)
    converted = as_ranking(small, 5)
    assert converted.dtype == np.int64 and converted.tolist() == small.tolist()
    assert small.flags.writeable
    assert as_ranking([2, 0, 1], 3).tolist() == [2, 0, 1]


@pytest.mark.parametrize("spec", ["kdeg", "kweight", "id", "random", "const"])
def test_rankings_built_from_a_spec_are_read_only(spec):
    g = build(helpers.path_edges(5))
    rank = resolve_ranking(g, spec, k=1)
    assert rank.dtype == np.int64 and not rank.flags.writeable
    assert sorted(rank.tolist()) == list(range(5))


def test_rank_static_kinds():
    g4 = build(helpers.path_edges(4))
    assert resolve_ranking(g4, "id").tolist() == [0, 1, 2, 3]
    assert resolve_ranking(g4, "const").tolist() == [0, 1, 2, 3]
    g6 = build(helpers.cycle_edges(6))
    a = resolve_ranking(g6, "random", seed=3)
    b = resolve_ranking(g6, "random", seed=3)
    assert a.tolist() == b.tolist()
    assert a.tolist() == np.random.default_rng(3).permutation(6).tolist()
    assert sorted(a.tolist()) == list(range(6))
    assert resolve_ranking(g6, "random", seed=4).tolist() != a.tolist()


def test_rank_static_external_prefers_high_scores(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("1.0\n5.0\n5.0\n0.0\n")
    r = resolve_ranking(build(helpers.path_edges(4)), f"file:{p}")
    assert r.tolist() == [2, 0, 1, 3]


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
    assert resolve_ranking(g, "id").tolist() == [0, 1, 2, 3]
    assert resolve_ranking(g, "kdeg", k=1).tolist() == [3, 0, 1, 2]
    kw = resolve_ranking(g, "kweight", k=1, weights=[10.0, 1.0, 1.0, 1.0])
    assert kw.tolist() == [0, 1, 2, 3]
    passthrough = np.array([1, 0, 2, 3])
    assert resolve_ranking(g, passthrough) is passthrough
    with pytest.raises(ValueError):
        resolve_ranking(g, "kdeg")  # k missing
    with pytest.raises(ValueError):
        resolve_ranking(g, "mystery")


def test_resolve_ranking_random_seeded():
    g = build(helpers.cycle_edges(8))
    a = resolve_ranking(g, "random", seed=11)
    b = resolve_ranking(g, "random", seed=11)
    assert a.tolist() == b.tolist()
