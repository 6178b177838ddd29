"""Barrier-synchronous rounds of inclusive-neighborhood reduction.

One round computes, for every node v,

    out[v] = op(values[v], op over values[u] for u in neighbors(v))

reading a frozen input buffer and writing a fresh output buffer.  A full
min, max or or round reads the graph's jagged-diagonal layout (`Jagged`:
Saad's JDS format, rows sorted by degree as in Kreutzer et al.'s
SELL-C-sigma): it gathers each row's own value, folds in one neighbor
column at a time, a gather and an in-place ufunc each, then the long
rows' remaining neighbors by one reduceat, and scatters the rows back to
node order.  A full sum round (walk counts) reduces each neighbor list
by reduceat, which keeps its float addition order, over `row_blocks`,
so no array over all 2m arcs is gathered.  A round may also recompute
only a given subset of rows.  Every round runs on the calling
thread: on a 2-core x86 box a jagged sweep split over two threads ran
0.84-1.46x as fast as one thread at 60k rows and 0.86-2.06x at 1M rows,
by how busy the host kept the second core.

`advance` is the one frontier step.  A round's output can change only
next to an input entry that changed (the frontier), so it is a full
sweep when the frontier holds more than DENSE_EDGE_SHARE of the edge
slots, else a `rows=` round on its closed neighbourhood (Ligra's rule:
Shun & Blelloch, PPoPP 2013).  `flood` repeats it in place for min, max
or bitwise-or rounds up to a step cap or a fixed point; `k_mis` runs it
from each label layer into the next.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # graph.py imports this module
    from .graph import Graph

_UFUNCS = {"min": np.minimum, "max": np.maximum, "sum": np.add,
           "or": np.bitwise_or}

# A jagged column must span this many rows; shorter ones go to the reduceat
# tail.  Per sweep, social (3k rows, max degree 135) took 0.092 ms with a
# floor of 16 rows, 0.053 ms at 256 and 0.070 ms with no column at all;
# mesh, uniform (60k rows) and a 1M-node graph varied under 15% over 16-1024.
COLUMN_MIN_ROWS = 256

# A flood round sweeps every row when the last frontier held more than this
# share of the edge slots, else only the rows next to it.  With jagged
# sweeps, cluster and check_kmis_validity on a 60k-node random graph took
# 6.5 ms at 0.05 and 3.6-3.9 ms at 0.01-0.04, where their first round
# sweeps in full, and cluster on a 1M-node one 170-200 ms at 0.05 and
# 140-170 ms at 0.03; a 400x300 grid's distortion check took 1.9-2.3 s at
# every share from 0.01 to 0.1.  (Over reduceat sweeps that check took
# 10.6 s with sparse levels only, and 5.0 s with one search per source.)
DENSE_EDGE_SHARE = 0.03

# Arcs per block of `row_blocks`, and edges per block of graph's table
# passes.  A block's temporaries take about 20 bytes an arc; at 1 << 16
# they raised a 120x100 grid's coarsen peak RSS by 0.6 MB (numpy 2.4,
# Linux x86-64).
ARC_BLOCK = 1 << 14


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[i], starts[i] + lengths[i]) over i."""
    offsets = np.cumsum(lengths) - lengths
    return (np.repeat(starts - offsets, lengths)
            + np.arange(int(lengths.sum()), dtype=np.int64))


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array of any shape, by
    np.sort plus a neighbour compare (numpy 2.4's unique took 5.8 ms on
    28k ids where np.sort took 0.25 ms).
    """
    ids = np.sort(ids, axis=None)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def row_blocks(g: Graph) -> list[tuple[int, int]]:
    """Ranges [first, last) of consecutive rows that cover g's rows in
    order, each of about ARC_BLOCK arcs; a longer row is a block alone."""
    cuts = np.searchsorted(g.indptr, np.arange(ARC_BLOCK, g.indptr[-1], ARC_BLOCK))
    bounds = [0, *cuts.tolist(), g.n]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def next_to(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Sorted ids of the closed neighbourhood N[nodes]: `nodes` and every
    node adjacent to one of them."""
    starts = g.indptr[nodes]
    near = g.indices[concat_ranges(starts, g.indptr[nodes + 1] - starts)]
    return sorted_unique(np.concatenate([nodes, near]))


class Jagged(NamedTuple):
    """A graph's rows in jagged-diagonal form, by descending degree.

    `order` lists the rows by descending degree, ties by id.
    ``columns[c]`` holds the c-th neighbor of each row of
    ``order[:columns[c].size]``, the rows of more than c neighbors; a
    column is kept while it spans COLUMN_MIN_ROWS rows.  The neighbors
    past the last column, of the rows ``order[:tail_starts.size - 1]``,
    follow one another in `tail`, those of ``order[i]`` from
    ``tail_starts[i]``.
    """

    order: np.ndarray
    columns: tuple[np.ndarray, ...]
    tail: np.ndarray
    tail_starts: np.ndarray


def jagged_layout(g: Graph) -> Jagged:
    """The jagged-diagonal layout of g's rows (see `Jagged`)."""
    order = np.argsort(-g.degrees, kind="stable")
    lengths = g.degrees[order]
    starts = g.indptr[order]
    # over[c]: the rows of more than c neighbors, a prefix of `order`
    over = g.n - np.cumsum(np.bincount(g.degrees, minlength=1))
    width = int(np.count_nonzero(over >= COLUMN_MIN_ROWS))
    columns = tuple(g.indices[starts[:over[c]] + c] for c in range(width))
    extra = lengths[:over[width]] - width
    return Jagged(order=order, columns=columns,
                  tail=g.indices[concat_ranges(starts[:extra.size] + width, extra)],
                  tail_starts=np.concatenate([[0], np.cumsum(extra)]))


def _jagged_sweep(layout: Jagged, values, ufunc) -> np.ndarray:
    """A full round of `ufunc` over the rows of `layout`."""
    acc = values[layout.order]
    for column in layout.columns:
        head = acc[:column.size]
        ufunc(head, values[column], out=head)
    starts = layout.tail_starts
    if starts.size > 1:  # every tail row holds a neighbor, as reduceat needs
        head = acc[:starts.size - 1]
        ufunc(head, ufunc.reduceat(values[layout.tail], starts[:-1]), out=head)
    out = np.empty_like(values)
    out[layout.order] = acc
    return out


def _identity(kind: str, dtype) -> int:
    """0 for sum and or, the dtype's largest value for min, smallest for max."""
    if kind in ("sum", "or"):
        return 0
    info = np.iinfo(dtype)
    return info.max if kind == "min" else info.min


def _reduce_segments(own, gathered, lengths, ufunc, kind):
    # reduceat misbehaves on empty rows (stray element for interior ones,
    # IndexError for trailing ones), so it reduces the nonempty rows only;
    # their starts are consecutive positions in `gathered`, which makes
    # each reduceat segment exactly one neighbor list.
    nonempty = np.flatnonzero(lengths)
    seg = np.full(own.size, _identity(kind, own.dtype), dtype=own.dtype)
    if nonempty.size:
        seg[nonempty] = ufunc.reduceat(gathered,
                                       (np.cumsum(lengths) - lengths)[nonempty])
    return ufunc(own, seg)


def neighbor_reduce(g: Graph, values: np.ndarray, kind: str,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """One round of `kind`: "min" or "max" (integer labels), "sum", or "or"
    (bitwise, on unsigned or bool masks); a row with no neighbor reduces
    over the identity of `kind` for the dtype of `values`.  With `rows`,
    sorted int64 node ids, only those rows are recomputed: the result
    holds one entry per row, equal to the full round's entries at `rows`.
    """
    ufunc = _UFUNCS[kind]
    if rows is not None:
        lengths = g.indptr[rows + 1] - g.indptr[rows]
        gathered = values[g.indices[concat_ranges(g.indptr[rows], lengths)]]
        return _reduce_segments(values[rows], gathered, lengths, ufunc, kind)
    if kind != "sum":
        return _jagged_sweep(g.jagged, values, ufunc)
    out = np.empty_like(values)
    for first, last in row_blocks(g):
        gathered = values[g.indices[g.indptr[first]:g.indptr[last]]]
        out[first:last] = _reduce_segments(values[first:last], gathered,
                                           g.degrees[first:last], ufunc, kind)
    return out


def advance(g: Graph, src: np.ndarray, dst: np.ndarray, changed: np.ndarray,
            kind: str, sweep) -> tuple[np.ndarray, np.ndarray]:
    """The one frontier step: bring `dst`, a round of `kind` over `src`, up
    to date after the rows `changed` of `src` changed, and return it (a
    fresh array after a full sweep, else `dst` written in place; it may
    be `src`) with its changed rows.  `sweep` is the caller's
    neighbor_reduce binding: tracers and spies patch it."""
    if g.degrees[changed].sum() > DENSE_EDGE_SHARE * g.indptr[-1]:
        nxt = sweep(g, src, kind)
        return nxt, np.flatnonzero(nxt != dst)
    rows = next_to(g, changed)
    got = sweep(g, src, kind, rows=rows)
    moved = got != dst[rows]
    changed = rows[moved]
    dst[changed] = got[moved]
    return dst, changed


def flood(g: Graph, values: np.ndarray, kind: str, steps: int | None, sweep):
    """Yield `values`, then the state after each round that changes it.

    Runs `advance` rounds of an idempotent `kind` ("min", "max" or "or")
    until `steps` rounds (None: no cap) or the first round that changes
    nothing, which comes within n rounds.  The first frontier is the
    nodes off the identity of `kind`, the only ones that move a
    neighbor.  The caller's array is copied, never written; a yielded
    state is updated in place by later rounds, so copy it to keep it.
    """
    values = np.array(values)
    yield values
    frontier = np.flatnonzero(values != _identity(kind, values.dtype))
    for _ in range(g.n if steps is None else steps):
        values, frontier = advance(g, values, values, frontier, kind, sweep)
        if not frontier.size:
            return
        yield values
