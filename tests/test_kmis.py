"""Parallel greedy k-MIS selection against independent pure-Python references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen._propagate
from kcoarsen import (
    Ranking,
    build,
    k_mis,
    power,
    rank_by_weight_rule,
    resolve_ranking,
)
from kcoarsen._propagate import neighbor_reduce

from . import helpers


def path5_setup(k, rank=None):
    g = build(helpers.path_edges(5))
    r = resolve_ranking(g, "id") if rank is None else Ranking(np.array(rank))
    return g, k_mis(g, k, r)


def test_path5_k1_frozen():
    _, res = path5_setup(1)
    assert res.selected.tolist() == [0, 2, 4]
    assert res.rounds == 3
    assert res.k == 1


def test_path5_k2_frozen():
    _, res = path5_setup(2)
    assert res.selected.tolist() == [0, 3]
    assert res.rounds == 2


def test_path5_reversed_ranking():
    _, res = path5_setup(1, rank=[4, 3, 2, 1, 0])
    assert res.selected.tolist() == [0, 2, 4]
    _, res = path5_setup(2, rank=[4, 3, 2, 1, 0])
    assert res.selected.tolist() == [1, 4]


def test_star_leaves_selected_in_one_round():
    g = build(helpers.star_edges(4))
    res = k_mis(g, 1, Ranking(np.array([3, 0, 1, 2])))
    assert res.selected.tolist() == [1, 2, 3]
    assert res.rounds == 1


def test_heavy_center_dominates_clique():
    g = build([(u, v) for u in range(4) for v in range(u + 1, 4)])
    rank = rank_by_weight_rule(g, [5.0, 1.0, 1.0, 1.0], 1)
    assert k_mis(g, 1, rank).selected.tolist() == [0]


def test_complete_graph_selects_min_rank():
    g = build([(u, v) for u in range(5) for v in range(u + 1, 5)])
    rank = Ranking(np.array([2, 0, 4, 1, 3]))
    for k in (1, 2, 3):
        assert k_mis(g, k, rank).selected.tolist() == [1]


def test_edgeless_graph_selects_everything():
    g = build([], n=4)
    assert k_mis(g, 3, resolve_ranking(g, "id")).selected.tolist() == [0, 1, 2, 3]


def test_empty_graph():
    g = build([], n=0)
    res = k_mis(g, 1, resolve_ranking(g, "id"))
    assert res.selected.size == 0
    assert res.rounds == 0


def test_rejects_bad_arguments():
    g = build(helpers.path_edges(3))
    with pytest.raises(ValueError):
        k_mis(g, 0, resolve_ranking(g, "id"))
    with pytest.raises(ValueError):
        k_mis(g, 1, Ranking(np.array([0, 0, 1])))
    with pytest.raises(ValueError):
        k_mis(g, 1, Ranking(np.arange(4)))


def test_min_rank_node_always_selected(small_corpus):
    for g, edges, n in small_corpus[:10]:
        rng = helpers.make_rng("prefix", n)
        perm = list(range(n))
        rng.shuffle(perm)
        rank = Ranking(np.array(perm))
        first = perm.index(0)
        for k in (1, 2):
            assert first in k_mis(g, k, rank).selected


def test_matches_both_references(small_corpus):
    for g, edges, n in small_corpus[:15]:
        adj = helpers.adjacency(n, edges)
        rng = helpers.make_rng("triple", n)
        perm = list(range(n))
        rng.shuffle(perm)
        rank = Ranking(np.array(perm))
        for k in (1, 2, 3):
            u, v, _ = power(g, k).edge_list()
            adj_k = helpers.adjacency(n, zip(u.tolist(), v.tolist()))
            ours = k_mis(g, k, rank).selected.tolist()
            assert ours == helpers.sequential_kmis(adj_k, n, 1, perm)
            assert ours == helpers.sequential_kmis(adj, n, k, perm)


def test_selection_is_valid(small_corpus):
    for g, edges, n in small_corpus[:10]:
        adj = helpers.adjacency(n, edges)
        for k in (1, 2):
            sel = k_mis(g, k, resolve_ranking(g, "random", seed=n)).selected.tolist()
            assert helpers.is_k_independent(adj, sel, k)
            assert helpers.covers_within_k(adj, n, sel, k)


def test_worker_count_does_not_change_result(small_corpus, split_every_row):
    for g, edges, n in small_corpus[:8]:
        rank = resolve_ranking(g, "random", seed=42)
        base = k_mis(g, 2, rank, workers=1).selected
        for workers in (2, 8):
            assert np.array_equal(k_mis(g, 2, rank, workers=workers).selected, base)


def test_sweeps_below_the_row_floor_stay_off_the_pool():
    class NoPool:
        def submit(self, *args):
            raise AssertionError("sweep split on a graph below the floor")

    n = kcoarsen._propagate.ROWS_PER_CHUNK * 2 - 1
    g = build(helpers.path_edges(n))
    values = np.arange(n, dtype=np.int64)
    out = neighbor_reduce(g, values, "min", np.int64(n), 8, NoPool())
    assert out.tolist() == [0] + list(range(n - 1))


def test_relabeling_equivariance():
    rng = helpers.make_rng("sigma")
    for trial in range(10):
        n = rng.randrange(6, 25)
        edges = helpers.random_edges(rng, n, 0.25)
        g = build(edges, n=n)
        perm = list(range(n))
        rng.shuffle(perm)  # sigma maps old id -> new id
        relabeled = build([(perm[u], perm[v]) for u, v in edges], n=n)
        rank = [rng.random() for _ in range(n)]
        r_old = Ranking.from_scores(rank)
        r_new = Ranking.from_scores([rank[perm.index(v)] for v in range(n)])
        for k in (1, 2):
            sel_old = k_mis(g, k, r_old).selected.tolist()
            sel_new = k_mis(relabeled, k, r_new).selected.tolist()
            assert sorted(perm[v] for v in sel_old) == sel_new


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_agrees_with_sequential_reference(data):
    n = data.draw(st.integers(2, 16))
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    k = data.draw(st.integers(1, 3))
    perm = data.draw(st.permutations(range(n)))
    g = build(edges, n=n)
    adj = helpers.adjacency(n, edges)
    got = k_mis(g, k, Ranking(np.array(perm))).selected.tolist()
    assert got == helpers.sequential_kmis(adj, n, k, perm)


def test_repeat_runs_identical(small_corpus):
    g, _, n = small_corpus[3]
    rank = resolve_ranking(g, "random", seed=5)
    a = k_mis(g, 2, rank)
    b = k_mis(g, 2, rank)
    assert np.array_equal(a.selected, b.selected)
    assert a.rounds == b.rounds

