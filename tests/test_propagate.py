"""Propagation rounds, full and on row subsets, and the flood."""

import operator
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcoarsen._propagate
import kcoarsen.graph
from kcoarsen import build, cluster, k_mis
from kcoarsen._propagate import (ARC_BLOCK, concat_ranges, flood,
                                 neighbor_reduce, next_to, row_blocks,
                                 sorted_unique)
from kcoarsen.graph import bfs
from kcoarsen.verify import check_kmis_validity

from . import helpers

KINDS = (("min", np.int64), ("max", np.int64), ("sum", np.float64),
         ("or", np.uint64))


def random_values(rng, n, dtype):
    if dtype == np.uint64:
        return rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    return rng.integers(0, 1000, size=n).astype(dtype)


def test_row_subset_equals_full_round_at_those_rows(corpus):
    rng = np.random.default_rng(0)
    for g, edges, n in corpus[::5]:
        for kind, dtype in KINDS:
            values = random_values(rng, n, dtype)
            full = neighbor_reduce(g, values, kind)
            subsets = (np.arange(n), np.empty(0, dtype=np.int64),
                       np.flatnonzero(rng.random(n) < 0.3),
                       np.flatnonzero(g.degrees == 0))
            for rows in subsets:
                got = neighbor_reduce(g, values, kind, rows=rows)
                assert got.dtype == values.dtype
                assert np.array_equal(got, full[rows])


def test_blocked_sum_round_adds_as_one_reduceat_over_all_arcs():
    """The full sum round, a block of rows at a time, equals to the bit one
    reduceat over the gather of all 2m arcs, on values whose sums depend
    on the order of addition: with a hub row longer than a block and
    rows without a neighbor."""
    rng = np.random.default_rng(5)
    n = 3 * ARC_BLOCK
    hub = np.arange(1, ARC_BLOCK + 100)
    u = np.concatenate([np.zeros(hub.size, np.int64), rng.integers(1, n - 50, size=n)])
    v = np.concatenate([hub, rng.integers(1, n - 50, size=n)])
    g = kcoarsen.graph._build_arrays(u, v, None, n)
    assert (0, 1) in row_blocks(g) and len(row_blocks(g)) > 3
    values = rng.random(n) * 10.0 ** rng.integers(-8, 9, size=n)
    nonempty = np.flatnonzero(g.degrees)
    want = values.copy()
    want[nonempty] += np.add.reduceat(values[g.indices], g.indptr[nonempty])
    got = neighbor_reduce(g, values, "sum")
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def skewed_graphs():
    """(edges, n) of degree-skewed graphs around the jagged column floor."""
    floor = kcoarsen._propagate.COLUMN_MIN_ROWS
    rng = helpers.make_rng("skewed")
    sparse = helpers.random_edges(rng, 2 * floor, 2.0 / floor)
    hub = floor + 100  # past the last column: its neighbors run the tail
    return [
        (helpers.path_edges(6), 12),  # isolated rows after the path
        (helpers.star_edges(40) + [(5, 6), (7, 9)], 40),  # one hub
        (helpers.cycle_edges(floor + 44), floor + 44),  # every row of degree 2
        (helpers.random_edges(rng, floor // 2, 0.1), floor // 2),  # n below the floor
        (sparse + [(hub, v) for v in range(0, 2 * floor, 3)], 2 * floor),
    ]


def test_jagged_layout_holds_each_neighbor_list_once():
    for edges, n in skewed_graphs():
        g = build(edges, n=n)
        layout = g.jagged
        degree = g.degrees.tolist()
        assert sorted(range(n), key=lambda v: -degree[v]) == layout.order.tolist()
        rows = {v: [] for v in range(n)}
        for column in layout.columns:
            for v, u in zip(layout.order.tolist(), column.tolist()):
                rows[v].append(u)
        starts = layout.tail_starts.tolist()
        for i, v in enumerate(layout.order[:len(starts) - 1].tolist()):
            rows[v] += layout.tail[starts[i]:starts[i + 1]].tolist()
        assert all(rows[v] == g.neighbors(v).tolist() for v in range(n))


ORACLE_OPS = {"min": min, "max": max, "or": operator.or_}


def test_round_matches_closed_neighborhood_oracle(small_corpus, monkeypatch):
    """min, max and or full rounds against a pure-Python closed neighborhood.

    Each graph is rebuilt under every column floor, so its layout runs
    columns only, the reduceat tail only, or both.
    """
    rng = np.random.default_rng(1)
    cases = [(edges, n) for _, edges, n in small_corpus[:10]] + skewed_graphs()
    layouts = set()  # (has columns, has a tail)
    for floor in (1, 3, kcoarsen._propagate.COLUMN_MIN_ROWS):
        monkeypatch.setattr(kcoarsen._propagate, "COLUMN_MIN_ROWS", floor)
        for edges, n in cases:
            g = build(edges, n=n)
            layouts.add((bool(g.jagged.columns), bool(g.jagged.tail.size)))
            adj = helpers.adjacency(n, edges)
            for kind, dtype in KINDS:
                if kind == "sum":
                    continue
                values = random_values(rng, n, dtype)
                op = ORACLE_OPS[kind]
                expect = [int(values[v]) for v in range(n)]
                for v in range(n):
                    for u in adj[v]:
                        expect[v] = op(expect[v], int(values[u]))
                got = neighbor_reduce(g, values, kind)
                assert got.dtype == values.dtype and got.tolist() == expect
    assert {(True, False), (False, True), (True, True)} <= layouts


def test_concurrent_callers_agree_while_the_layout_is_built():
    """Threads racing to build a fresh graph's layout all get the round."""
    edges, n = skewed_graphs()[-1]
    values = np.random.default_rng(4).integers(0, 1000, size=n)
    expect = neighbor_reduce(build(edges, n=n), values, "min")
    same = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = build(edges, n=n)
            start = threading.Barrier(6)

            def caller():
                start.wait(timeout=60)
                for _ in range(4):
                    got = neighbor_reduce(g, values, "min")
                    same.append(np.array_equal(got, expect))

            callers = [threading.Thread(target=caller) for _ in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert len(same) == 120 and all(same)


# a path 0-1-2-3, a triangle 4-5-6 and the isolated nodes 7 and 8
HELPER_GRAPH = build(helpers.path_edges(4) + [(4, 5), (5, 6), (4, 6)], n=9)
NODE_SETS = {
    "empty": [],
    "isolated": [7, 8],
    "repeated": [2, 2, 0, 2, 7, 7],
    "with_neighbour": [1, 2, 5, 4],
    "all": list(range(9)),
}


@pytest.mark.parametrize("name", NODE_SETS)
def test_next_to_is_the_closed_neighbourhood(name):
    nodes = NODE_SETS[name]
    adj = helpers.adjacency(9, zip(*(a.tolist()
                                     for a in HELPER_GRAPH.edge_list()[:2])))
    got = next_to(HELPER_GRAPH, np.array(nodes, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == sorted(set(nodes).union(*(adj[v] for v in nodes)))


@pytest.mark.parametrize("name", NODE_SETS)
def test_sorted_unique_matches_a_sorted_set(name):
    ids = np.array(NODE_SETS[name] + NODE_SETS[name][::-1], dtype=np.int64)
    got = sorted_unique(ids)
    assert got.dtype == np.int64 and got.tolist() == sorted(set(ids.tolist()))


@pytest.mark.parametrize("starts, lengths", [
    ([], []),  # no range
    ([3, 9], [0, 0]),  # empty ranges only
    ([5, 5, 0], [2, 2, 3]),  # a repeated start
    ([4, 1, 7, 2], [1, 0, 3, 2]),  # an empty range between others
])
def test_concat_ranges_matches_chained_ranges(starts, lengths):
    got = concat_ranges(np.array(starts, dtype=np.int64),
                        np.array(lengths, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [x for s, n in zip(starts, lengths)
                            for x in range(s, s + n)]


FLOOD_DTYPES = {"min": (np.int32, np.int64), "max": (np.int32, np.int64),
                "or": (np.uint8, np.uint64, np.bool_)}


def identity(kind, dtype):
    """The value of `kind` that changes no neighbor: what flood leaves idle."""
    if kind == "or":
        return 0
    return np.iinfo(dtype).max if kind == "min" else np.iinfo(dtype).min


@st.composite
def flood_cases(draw):
    """(graph, values, kind, steps): few or many nodes off the identity."""
    n = draw(st.integers(1, 60))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    kind = draw(st.sampled_from(sorted(FLOOD_DTYPES)))
    dtype = draw(st.sampled_from(FLOOD_DTYPES[kind]))
    seeded = draw(st.lists(st.integers(0, n - 1), min_size=1,
                           max_size=draw(st.sampled_from([2, n]))))
    values = np.full(n, identity(kind, dtype), dtype=dtype)
    for v in seeded:
        if kind != "or":
            values[v] = draw(st.integers(-1000, 1000))
        elif dtype != np.bool_:
            values[v] = 1 << draw(st.integers(0, 8 * values.itemsize - 1))
        else:
            values[v] = True
    steps = draw(st.none() | st.integers(0, 8))
    return build(edges, n=n), values, kind, steps


def full_rounds(g, values, kind, steps):
    """The states a flood must yield, from full neighbor_reduce rounds."""
    states = [values]
    while steps is None or len(states) <= steps:
        nxt = neighbor_reduce(g, states[-1], kind)
        if np.array_equal(nxt, states[-1]):
            break
        states.append(nxt)
    return states


def run_flood(g, values, kind, steps, **kwargs):
    """Copies of the yielded states, plus the `rows=` flag of each sweep."""
    sparse = []

    def sweep(*args, **kw):
        sparse.append(kw.get("rows") is not None)
        return neighbor_reduce(*args, **kw)

    states = [state.copy() for state in flood(g, values, kind, steps, sweep,
                                              **kwargs)]
    return states, sparse


PATH40 = build([(i, i + 1) for i in range(39)])


def test_flood_yields_full_rounds_until_steps_or_fixed_point():
    seen = set()

    @given(flood_cases())
    @example((PATH40, np.where(np.arange(40) == 7, 3, identity("min", np.int64)), "min", None))
    @example((PATH40, np.arange(40), "max", 3))
    @settings(max_examples=200, deadline=None)
    def check(case):
        g, values, kind, steps = case
        before = values.copy()
        states, sparse = run_flood(g, values, kind, steps)
        expected = full_rounds(g, values, kind, steps)
        assert np.array_equal(values, before)  # the input is never written
        assert len(states) == len(expected)
        for got, want in zip(states, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # one sweep per yielded round, plus the one that found the fixed point
        at_cap = steps is not None and len(states) == steps + 1
        assert len(sparse) == len(states) - 1 + (not at_cap)
        seen.update(sparse)

    check()
    assert seen == {True, False}  # both round kinds ran


def test_flood_with_zero_steps_yields_a_copy_and_sweeps_nothing():
    values = np.arange(40)
    states, sparse = run_flood(PATH40, values, "min", 0)
    assert len(states) == 1 and np.array_equal(states[0], values)
    assert sparse == []


def test_flood_on_the_empty_graph():
    g = build([], n=0)
    for kind, dtypes in FLOOD_DTYPES.items():
        for dtype in dtypes:
            states, _ = run_flood(g, np.empty(0, dtype=dtype), kind, None)
            assert len(states) == 1 and states[0].size == 0


@pytest.mark.parametrize("share", [2.0, -1.0], ids=["all_local", "all_full"])
def test_floods_match_the_bfs_oracle_under_either_frontier_rule(small_corpus,
                                                                monkeypatch, share):
    """bfs, cluster and check_kmis_validity, with every `advance` round a
    row subset (2.0) or a full sweep (-1.0), against helpers' BFS."""
    monkeypatch.setattr(kcoarsen._propagate, "DENSE_EDGE_SHARE", share)
    for g, edges, n in small_corpus[::3]:
        adj = helpers.adjacency(n, edges)
        dist = [helpers.bfs_dists(adj, s) for s in range(n)]
        src, dst = np.divmod(np.arange(n * n), n)
        for cap in (None, 2):
            want = [dist[s].get(t, n) for s, t in zip(src.tolist(), dst.tolist())]
            if cap is not None:
                want = [n if d > cap else d for d in want]
            assert bfs(g, src, dst, max_depth=cap).tolist() == want
        rng = helpers.make_rng("frontier", n)
        perm = list(range(n))
        rng.shuffle(perm)
        ranking = np.array(perm)
        for k in (1, 2):
            result = k_mis(g, k, ranking)
            selected = result.selected.tolist()
            assert cluster(g, k, ranking, result.selected).tolist() == [
                min((perm[s], s) for s in selected if dist[s].get(v, k + 1) <= k)[1]
                for v in range(n)]
            some = sorted(rng.sample(range(n), rng.randrange(n + 1)))
            report = check_kmis_validity(g, k, np.array(some, dtype=np.int64))
            assert [(v.kind, v.nodes, v.observed, v.bound) for v in report.violations] \
                == helpers.validity_reference(n, edges, some, k)
