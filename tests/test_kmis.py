"""Parallel greedy k-MIS selection against independent pure-Python references."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen._propagate
import kcoarsen.kmis
from kcoarsen import build, k_mis, resolve_ranking
from kcoarsen._propagate import neighbor_reduce
from kcoarsen.graph import power
from kcoarsen.ranking import _from_scores

from . import helpers

# Dense-edge shares that force every label-layer update, the first round's
# included, to recompute a row subset, or to sweep every row.  Not inf:
# inf * 0 edge slots warns on an edgeless graph.
ROUND_RULES = {"all_local": 2.0, "all_full": -1.0}


@contextlib.contextmanager
def forced_rounds(rule):
    """Run k_mis under ROUND_RULES[rule], its cover floods included, or
    under the package's own share for None."""
    with pytest.MonkeyPatch.context() as mp:
        if rule is not None:
            mp.setattr(kcoarsen._propagate, "DENSE_EDGE_SHARE", ROUND_RULES[rule])
        yield


def path5_setup(k, rank=None):
    g = build(helpers.path_edges(5))
    r = resolve_ranking(g, "id") if rank is None else np.array(rank)
    return g, k_mis(g, k, r)


def test_path5_k1_frozen():
    _, res = path5_setup(1)
    assert res.selected.tolist() == [0, 2, 4]
    assert res.rounds == 3


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
    res = k_mis(g, 1, np.array([3, 0, 1, 2]))
    assert res.selected.tolist() == [1, 2, 3]
    assert res.rounds == 1


def test_heavy_center_dominates_clique():
    g = build([(u, v) for u in range(4) for v in range(u + 1, 4)])
    rank = resolve_ranking(g, "kweight", k=1, weights=[5.0, 1.0, 1.0, 1.0])
    assert k_mis(g, 1, rank).selected.tolist() == [0]


def test_complete_graph_selects_min_rank():
    g = build([(u, v) for u in range(5) for v in range(u + 1, 5)])
    rank = np.array([2, 0, 4, 1, 3])
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
        k_mis(g, 1, np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        k_mis(g, 1, np.arange(4))


def test_min_rank_node_always_selected(small_corpus):
    for g, edges, n in small_corpus[:10]:
        rng = helpers.make_rng("prefix", n)
        perm = list(range(n))
        rng.shuffle(perm)
        rank = np.array(perm)
        first = perm.index(0)
        for k in (1, 2):
            assert first in k_mis(g, k, rank).selected


@pytest.mark.parametrize("rule", ROUND_RULES)
def test_matches_both_references(small_corpus, rule):
    with forced_rounds(rule):
        for g, edges, n in small_corpus[:15]:
            adj = helpers.adjacency(n, edges)
            rng = helpers.make_rng("triple", n)
            perm = list(range(n))
            rng.shuffle(perm)
            rank = np.array(perm)
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


@pytest.mark.parametrize("rule", ROUND_RULES)
def test_worker_count_does_not_change_result(small_corpus, rule):
    with forced_rounds(rule):
        for g, edges, n in small_corpus[:8]:
            rank = resolve_ranking(g, "random", seed=42)
            base = k_mis(g, 2, rank, workers=1).selected
            for workers in (2, 8):
                assert np.array_equal(k_mis(g, 2, rank, workers=workers).selected, base)


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
        r_old = _from_scores(rank)
        r_new = _from_scores([rank[perm.index(v)] for v in range(n)])
        for k in (1, 2):
            sel_old = k_mis(g, k, r_old).selected.tolist()
            sel_new = k_mis(relabeled, k, r_new).selected.tolist()
            assert sorted(perm[v] for v in sel_old) == sel_new


@pytest.mark.parametrize("rule", ROUND_RULES)
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_agrees_with_sequential_reference(rule, data):
    n = data.draw(st.integers(2, 16))
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    k = data.draw(st.integers(1, 3))
    perm = data.draw(st.permutations(range(n)))
    g = build(edges, n=n)
    adj = helpers.adjacency(n, edges)
    with forced_rounds(rule):
        got = k_mis(g, k, np.array(perm)).selected.tolist()
    assert got == helpers.sequential_kmis(adj, n, k, perm)


STRUCTURED = {
    "path100": (helpers.path_edges(100), 100),
    "path400": (helpers.path_edges(400), 400),
    "cycle150": (helpers.cycle_edges(150), 150),
    "cycle399": (helpers.cycle_edges(399), 399),
    "grid10x10": (helpers.grid_edges(10, 10), 100),
    "grid20x20": (helpers.grid_edges(20, 20), 400),
    "grid12x30": (helpers.grid_edges(12, 30), 360),
}


@pytest.mark.parametrize("rule", [None, *ROUND_RULES])
@pytest.mark.parametrize("name", STRUCTURED)
def test_long_graphs_match_sequential_reference(name, rule):
    edges, n = STRUCTURED[name]
    g = build(edges, n=n)
    adj = helpers.adjacency(n, edges)
    perm = list(range(n))
    helpers.make_rng("long", name).shuffle(perm)
    rankings = [perm] if name.startswith(("path", "cycle")) else [perm, list(range(n))]
    with forced_rounds(rule):
        for rank in rankings:
            for k in (1, 2, 3, 4):
                got = k_mis(g, k, np.array(rank)).selected.tolist()
                assert got == helpers.sequential_kmis(adj, n, k, rank), (k, rank[:3])


def test_local_rounds_sweep_row_subsets_and_pick_as_full_floods(monkeypatch):
    g = build(helpers.grid_edges(40, 40))
    rank = resolve_ranking(g, "id")
    full_sweeps = []

    def spy(*args, **kwargs):
        full_sweeps.append(kwargs.get("rows") is None)
        return neighbor_reduce(*args, **kwargs)

    monkeypatch.setattr(kcoarsen.kmis, "neighbor_reduce", spy)
    ours = k_mis(g, 2, rank)
    local_made = full_sweeps.count(False), full_sweeps.count(True)
    full_sweeps.clear()
    with forced_rounds("all_full"):
        full = k_mis(g, 2, rank)
    assert local_made[0] > 0
    assert local_made[1] < full_sweeps.count(True)
    assert np.array_equal(ours.selected, full.selected)
    assert ours.rounds == full.rounds


@pytest.mark.parametrize("rule", [None, *ROUND_RULES])
def test_trace_records_every_round(small_corpus, rule):
    graphs = [(g, n) for g, _, n in small_corpus[:10]]
    graphs.append((build(helpers.grid_edges(20, 20)), 400))
    with forced_rounds(rule):
        for g, n in graphs:
            for k in (1, 2, 3):
                trace = []
                res = k_mis(g, k, resolve_ranking(g, "id"), trace=trace)
                assert len(trace) == res.rounds
                assert sum(r["chosen"] for r in trace) == res.selected.size
                assert sum(r["retired"] for r in trace) == n
                assert all(0 < r["region"] <= n for r in trace)


def test_repeat_runs_identical(small_corpus):
    g, _, n = small_corpus[3]
    rank = resolve_ranking(g, "random", seed=5)
    a = k_mis(g, 2, rank)
    b = k_mis(g, 2, rank)
    assert np.array_equal(a.selected, b.selected)
    assert a.rounds == b.rounds



def test_round_that_picks_nothing_raises(monkeypatch):
    # labels off by one on every row-subset round make the local rounds
    # pick nothing; without a progress check such a round repeats forever
    def off_by_one(g, values, kind, rows=None):
        out = neighbor_reduce(g, values, kind, rows=rows)
        return out if rows is None else out + 1

    monkeypatch.setattr(kcoarsen.kmis, "neighbor_reduce", off_by_one)
    g = build(helpers.grid_edges(20, 20))
    with forced_rounds("all_local"), pytest.raises(RuntimeError,
                                                   match="picked no node"):
        k_mis(g, 2, resolve_ranking(g, "id"))
