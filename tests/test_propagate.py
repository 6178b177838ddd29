"""The propagation round (row subsets, the bitwise-or kind) and the flood."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcoarsen import build
from kcoarsen._propagate import flood, neighbor_reduce, worker_pool

from . import helpers

KINDS = (("min", np.int64, np.int64(1 << 40)), ("max", np.int64, np.int64(-1)),
         ("sum", np.float64, 0.0), ("or", np.uint64, np.uint64(0)))


def random_values(rng, n, dtype):
    if dtype == np.uint64:
        return rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    return rng.integers(0, 1000, size=n).astype(dtype)


def test_row_subset_equals_full_round_at_those_rows(corpus):
    rng = np.random.default_rng(0)
    for g, edges, n in corpus[::5]:
        for kind, dtype, fill in KINDS:
            values = random_values(rng, n, dtype)
            full = neighbor_reduce(g, values, kind, fill)
            subsets = (np.arange(n), np.empty(0, dtype=np.int64),
                       np.flatnonzero(rng.random(n) < 0.3),
                       np.flatnonzero(g.degrees == 0))
            for rows in subsets:
                got = neighbor_reduce(g, values, kind, fill, rows=rows)
                assert got.dtype == values.dtype
                assert np.array_equal(got, full[rows])


def test_or_round_matches_closed_neighborhood_union(small_corpus):
    rng = np.random.default_rng(1)
    for g, edges, n in small_corpus[:10]:
        adj = helpers.adjacency(n, edges)
        values = random_values(rng, n, np.uint64)
        expect = [int(values[v]) for v in range(n)]
        for v in range(n):
            for u in adj[v]:
                expect[v] |= int(values[u])
        assert neighbor_reduce(g, values, "or", np.uint64(0)).tolist() == expect


def test_or_round_is_bitwise_invariant_across_worker_counts(small_corpus,
                                                            split_every_row):
    rng = np.random.default_rng(2)
    for g, edges, n in small_corpus[:8]:
        values = random_values(rng, n, np.uint64)
        base = neighbor_reduce(g, values, "or", np.uint64(0))
        for workers in (2, 5, 16):
            with worker_pool(workers) as pool:
                out = neighbor_reduce(g, values, "or", np.uint64(0), workers, pool)
            assert np.array_equal(out, base)


FLOOD_FILLS = {"min": np.int64(1 << 40), "max": np.int64(-1), "or": np.uint64(0)}


@st.composite
def flood_cases(draw):
    """(graph, values, kind, steps): few or many nodes off the fill."""
    n = draw(st.integers(1, 60))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    kind = draw(st.sampled_from(sorted(FLOOD_FILLS)))
    fill = FLOOD_FILLS[kind]
    seeded = draw(st.lists(st.integers(0, n - 1), min_size=1,
                           max_size=draw(st.sampled_from([2, n]))))
    values = np.full(n, fill)
    for v in seeded:
        values[v] = draw(st.integers(1, 1000)) if kind != "or" else 1 << draw(
            st.integers(0, 63))
    steps = draw(st.none() | st.integers(0, 8))
    return build(edges, n=n), values, kind, steps


def full_rounds(g, values, kind, steps):
    """The states a flood must yield, from full neighbor_reduce rounds."""
    states = [values]
    while steps is None or len(states) <= steps:
        nxt = neighbor_reduce(g, states[-1], kind, FLOOD_FILLS[kind])
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

    states = [state.copy() for state in flood(g, values, kind, FLOOD_FILLS[kind],
                                              steps, sweep, **kwargs)]
    return states, sparse


PATH40 = build([(i, i + 1) for i in range(39)])


def test_flood_yields_full_rounds_until_steps_or_fixed_point():
    seen = set()

    @given(flood_cases())
    @example((PATH40, np.where(np.arange(40) == 7, 3, FLOOD_FILLS["min"]), "min", None))
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
    for kind in FLOOD_FILLS:
        values = np.empty(0, dtype=FLOOD_FILLS[kind].dtype)
        states, _ = run_flood(g, values, kind, None)
        assert len(states) == 1 and states[0].size == 0


def test_flood_is_invariant_across_worker_counts(small_corpus, split_every_row):
    rng = np.random.default_rng(3)
    for g, edges, n in small_corpus[:8]:
        values = rng.integers(0, 1000, size=n)
        base, _ = run_flood(g, values, "min", None)
        with worker_pool(3) as pool:
            got, _ = run_flood(g, values, "min", None, workers=3, pool=pool)
        assert len(got) == len(base)
        assert all(np.array_equal(a, b) for a, b in zip(got, base))
