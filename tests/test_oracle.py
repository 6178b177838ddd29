"""Greedy and exact independent-set baselines plus the comparison harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoarsen import build
from kcoarsen.oracle import EXACT_MWIS_CAP, compare, exact_mwis, sequential_greedy_mwis

from . import helpers


def test_greedy_star_degree_rule_takes_leaves():
    g = build(helpers.star_edges(4))
    got = sequential_greedy_mwis(g, [1.0] * 4, "degree_rule")
    assert got.tolist() == [1, 2, 3]


def test_greedy_star_weight_rule_takes_heavy_center():
    g = build(helpers.star_edges(4))
    got = sequential_greedy_mwis(g, [10.0, 1.0, 1.0, 1.0], "weight_rule")
    assert got.tolist() == [0]


def test_greedy_path5_frozen():
    g = build(helpers.path_edges(5))
    got = sequential_greedy_mwis(g, [1.0] * 5, "degree_rule")
    assert got.tolist() == [0, 2, 4]


def test_greedy_clique_heavy_node():
    g = build([(u, v) for u in range(4) for v in range(u + 1, 4)])
    got = sequential_greedy_mwis(g, [5.0, 1.0, 1.0, 1.0], "degree_rule")
    assert got.tolist() == [0]


def test_greedy_rejects_unknown_rule():
    g = build(helpers.path_edges(3))
    with pytest.raises(ValueError):
        sequential_greedy_mwis(g, [1.0] * 3, "uniform")


def test_greedy_output_is_maximal_independent(small_corpus):
    for g, edges, n in small_corpus[:10]:
        adj = helpers.adjacency(n, edges)
        rng = helpers.make_rng("greedy", n)
        x = helpers.dyadic_weights(rng, n)
        for rule in ("degree_rule", "weight_rule"):
            got = sequential_greedy_mwis(g, x, rule).tolist()
            assert helpers.is_k_independent(adj, got, 1)
            assert helpers.covers_within_k(adj, n, got, 1)


def test_exact_mwis_frozen():
    c5 = build(helpers.cycle_edges(5))
    members, alpha = exact_mwis(c5, [1.0] * 5)
    assert alpha == 2.0 and len(members) == 2
    tri = build([(0, 1), (1, 2), (0, 2)])
    members, alpha = exact_mwis(tri, [1.0, 2.0, 3.0])
    assert (members.tolist(), alpha) == ([2], 3.0)
    edge = build([(0, 1)])
    members, alpha = exact_mwis(edge, [3.0, 5.0])
    assert (members.tolist(), alpha) == ([1], 5.0)


def test_exact_mwis_edgeless_and_empty():
    g = build([], n=3)
    members, alpha = exact_mwis(g, [1.0, 2.0, 3.0])
    assert members.tolist() == [0, 1, 2] and alpha == 6.0
    members, alpha = exact_mwis(build([], n=0), [])
    assert members.size == 0 and alpha == 0.0


def test_exact_mwis_respects_cap():
    g = build([], n=EXACT_MWIS_CAP + 1)
    with pytest.raises(ValueError, match="cap|nodes"):
        exact_mwis(g, [1.0] * g.n)


def test_exact_matches_brute_force():
    rng = helpers.make_rng("exact")
    for trial in range(25):
        n = rng.randrange(2, 10)
        edges = helpers.random_edges(rng, n, 0.4)
        x = helpers.dyadic_weights(rng, n)
        g = build(edges, n=n)
        members, alpha = exact_mwis(g, x)
        best_w, _ = helpers.brute_mwis(n, edges, x)
        assert alpha == best_w
        assert helpers.is_k_independent(helpers.adjacency(n, edges), members.tolist(), 1)
        assert sum(x[v] for v in members.tolist()) == alpha


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_exact_at_least_greedy(data):
    n = data.draw(st.integers(2, 10))
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
    )
    g = build(edges, n=n)
    x = [data.draw(st.integers(1, 16)) / 4 for _ in range(n)]
    _, alpha = exact_mwis(g, x)
    for rule in ("degree_rule", "weight_rule"):
        greedy = sequential_greedy_mwis(g, x, rule)
        assert alpha >= sum(x[v] for v in greedy.tolist())


def test_compare_runs_clean_on_path():
    g = build(helpers.path_edges(8))
    report = compare(g, 1, "degree_rule", trials=4, seed=3)
    assert report.trials == 4 and len(report.rows) == 4
    assert report.bound_violations == []
    assert report.delta_k == 3.0
    for row in report.rows:
        assert row.exact_alpha is not None
        assert row.exact_alpha >= row.ours_weight - 1e-9
        assert row.exact_alpha >= row.greedy_weight - 1e-9
        assert row.ours_weight >= row.bound_rhs - 1e-9


def test_compare_is_seed_reproducible():
    g = build(helpers.cycle_edges(9))
    a = compare(g, 2, "weight_rule", trials=3, seed=7)
    b = compare(g, 2, "weight_rule", trials=3, seed=7)
    assert [r.ours_weight for r in a.rows] == [r.ours_weight for r in b.rows]
    assert [r.greedy_weight for r in a.rows] == [r.greedy_weight for r in b.rows]
    c = compare(g, 2, "weight_rule", trials=3, seed=8)
    assert [r.ours_weight for r in c.rows] != [r.ours_weight for r in a.rows]


def test_compare_skips_exact_above_cap():
    g = build(helpers.cycle_edges(30))
    report = compare(g, 1, "degree_rule", trials=2, seed=0)
    assert report.exact_alpha is None
    assert all(r.exact_alpha is None for r in report.rows)
    assert all(r.ratio_rhs is None for r in report.rows)


def test_compare_rejects_bad_arguments():
    g = build(helpers.path_edges(4))
    with pytest.raises(ValueError):
        compare(g, 1, "uniform")
    with pytest.raises(ValueError):
        compare(g, 1, "degree_rule", trials=0)
    with pytest.raises(ValueError):
        compare(g, 0, "degree_rule")


def test_compare_respects_oracle_cap():
    g = build(helpers.cycle_edges(40))
    with pytest.raises(ValueError):
        compare(g, 2, "degree_rule", trials=1, oracle_cap=5)


def test_compare_bounds_hold_across_corpus(small_corpus):
    for g, edges, n in small_corpus[:6]:
        for rule in ("degree_rule", "weight_rule"):
            report = compare(g, 2, rule, trials=2, seed=n)
            assert report.bound_violations == []
