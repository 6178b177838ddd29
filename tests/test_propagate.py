"""The propagation round: row subsets and the bitwise-or kind."""

import numpy as np

from kcoarsen._propagate import neighbor_reduce, worker_pool

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
