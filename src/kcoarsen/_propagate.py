"""Barrier-synchronous rounds of inclusive-neighborhood reduction.

One round computes, for every node v,

    out[v] = op(values[v], op over values[u] for u in neighbors(v))

reading a frozen input buffer and writing a fresh output buffer.  Nodes
are split into contiguous chunks (one per worker, ROWS_PER_CHUNK rows at
least); because chunk boundaries never cut a neighbor list and every
chunk reads only the previous buffer, results are bit-identical for any
worker count.  A round that splits runs its chunks on a thread pool of
`workers` threads, made on first use and kept for the process.  A round
may also recompute only a given subset of rows.

`flood` repeats min, max or bitwise-or rounds up to a step cap or a fixed
point.  Under these idempotent kinds a node can change only next to one
that changed in the last round (the frontier), so a round is a full
sweep when the frontier holds more than DENSE_EDGE_SHARE of the edge
slots, else a `rows=` round next to it (Ligra's rule: Shun & Blelloch,
PPoPP 2013).
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # graph.py imports this module
    from .graph import Graph

_UFUNCS = {"min": np.minimum, "max": np.maximum, "sum": np.add,
           "or": np.bitwise_or}

# On a 2-core x86 box a sweep ran 0.2-0.75x as fast on 2 workers as on 1 at
# 3k-8k rows, and 1.0-1.5x at 10k-60k rows.
ROWS_PER_CHUNK = 8192

# A flood round sweeps every row when the last frontier held more than this
# share of the edge slots, else only the rows next to it.  On a 400x300 grid
# the distortion check took 5.5 s at 0.01, 4.4 s at 0.05, 9.0 s at 0.2 and
# 10.6 s with sparse levels only (5.0 s with one search per source).
DENSE_EDGE_SHARE = 0.05


# One pool per worker count, kept for the process, so a select or a
# cluster does not start and join threads on every call.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` threads, made on first use."""
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
        return _POOLS[workers]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[i], starts[i] + lengths[i]) over i."""
    offsets = np.cumsum(lengths) - lengths
    return (np.repeat(starts - offsets, lengths)
            + np.arange(int(lengths.sum()), dtype=np.int64))


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """np.unique of an integer array, by np.sort plus a neighbour compare.

    numpy 2.4's np.unique took 5.8 ms on 28k ids where np.sort took 0.25 ms.
    """
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def next_to(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Sorted ids of the nodes adjacent to some node of `nodes`."""
    starts = g.indptr[nodes]
    return sorted_unique(g.indices[concat_ranges(starts,
                                                 g.indptr[nodes + 1] - starts)])


def _reduce_segments(own, gathered, nonempty, offsets, ufunc, fill, out):
    # reduceat misbehaves on empty rows (stray element for interior ones,
    # IndexError for trailing ones), so it reduces the nonempty rows only;
    # their starts are consecutive positions in `gathered`, which makes
    # each reduceat segment exactly one neighbor list.
    seg = np.full(own.size, fill, dtype=own.dtype)
    if nonempty.size:
        seg[nonempty] = ufunc.reduceat(gathered, offsets)
    return ufunc(own, seg, out=out)


def _reduce_rows(g: Graph, values, out, ufunc, fill, lo: int, hi: int):
    start = g.indptr[lo]
    gathered = values[g.indices[start:g.indptr[hi]]]
    nonempty = np.flatnonzero(g.indptr[lo + 1:hi + 1] > g.indptr[lo:hi])
    offsets = g.indptr[lo:hi][nonempty] - start
    _reduce_segments(values[lo:hi], gathered, nonempty, offsets, ufunc, fill,
                     out[lo:hi])


def neighbor_reduce(g: Graph, values: np.ndarray, kind: str, fill,
                    workers: int = 1,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """One reduction round; `fill` must be the identity of the op.

    `kind` is "min", "max", "sum" or "or" (bitwise, on unsigned masks).
    With `rows`, sorted int64 node ids, only those rows are recomputed,
    inline: the result holds one entry per row, equal to the full
    round's entries at `rows`.
    """
    ufunc = _UFUNCS[kind]
    if rows is not None:
        lengths = g.indptr[rows + 1] - g.indptr[rows]
        gathered = values[g.indices[concat_ranges(g.indptr[rows], lengths)]]
        nonempty = np.flatnonzero(lengths)
        offsets = (np.cumsum(lengths) - lengths)[nonempty]
        return _reduce_segments(values[rows], gathered, nonempty, offsets,
                                ufunc, fill, None)
    out = np.empty_like(values)
    chunks = max(min(workers, g.n // ROWS_PER_CHUNK), 1)
    if chunks == 1:
        _reduce_rows(g, values, out, ufunc, fill, 0, g.n)
        return out
    bounds = np.linspace(0, g.n, chunks + 1).astype(np.int64)
    pool = _pool(workers)
    # run in a copy of the caller's context, so its np.errstate holds
    futures = [
        pool.submit(contextvars.copy_context().run, _reduce_rows, g,
                    values, out, ufunc, fill, bounds[i], bounds[i + 1])
        for i in range(chunks)
    ]
    for future in futures:
        future.result()
    return out


def flood(g: Graph, values: np.ndarray, kind: str, fill, steps: int | None,
          sweep, workers: int = 1):
    """Yield `values`, then the state after each round that changes it.

    Runs rounds of an idempotent `kind` ("min", "max" or "or") until
    `steps` rounds (None: no cap) or the first round that changes
    nothing, which comes within n rounds.  The first frontier is the
    nodes not holding `fill`.  The caller's array is copied, never
    written; a yielded state is updated in place by later rounds, so
    copy it to keep it.
    """
    # `sweep` is the caller's neighbor_reduce binding: tracers and spies patch it
    values = np.array(values)
    yield values
    degrees = g.degrees
    frontier = np.flatnonzero(values != fill)
    for _ in range(g.n if steps is None else steps):
        if degrees[frontier].sum() > DENSE_EDGE_SHARE * g.indptr[-1]:
            nxt = sweep(g, values, kind, fill, workers)
            frontier = np.flatnonzero(nxt != values)
            values = nxt
        else:
            rows = next_to(g, frontier)
            got = sweep(g, values, kind, fill, rows=rows)
            grew = got != values[rows]
            frontier = rows[grew]
            values[frontier] = got[grew]
        if not frontier.size:
            return
        yield values
