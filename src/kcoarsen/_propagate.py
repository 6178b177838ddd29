"""Barrier-synchronous rounds of inclusive-neighborhood reduction.

One round computes, for every node v,

    out[v] = op(values[v], op over values[u] for u in neighbors(v))

reading a frozen input buffer and writing a fresh output buffer.  Nodes
are split into contiguous chunks (one per worker, ROWS_PER_CHUNK rows at
least); because chunk boundaries never cut a neighbor list and every
chunk reads only the previous buffer, results are bit-identical for any
worker count.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # graph.py imports this module
    from .graph import Graph

_UFUNCS = {"min": np.minimum, "max": np.maximum, "sum": np.add}

# On a 2-core x86 box a sweep ran 0.2-0.75x as fast on 2 workers as on 1 at
# 3k-8k rows, and 1.0-1.5x at 10k-60k rows.
ROWS_PER_CHUNK = 8192


@contextlib.contextmanager
def worker_pool(workers: int):
    """Yield a thread pool when workers > 1, else None."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield pool
    else:
        yield None


def _reduce_rows(g: Graph, values, out, ufunc, fill, lo: int, hi: int):
    start = g.indptr[lo]
    stop = g.indptr[hi]
    gathered = values[g.indices[start:stop]]
    seg = np.full(hi - lo, fill, dtype=values.dtype)
    # reduceat misbehaves on empty rows (stray element for interior ones,
    # IndexError for trailing ones), so reduce over nonempty rows only;
    # their starts are consecutive positions in `gathered`, which makes
    # each reduceat segment exactly one neighbor list.
    nonempty = np.flatnonzero(g.indptr[lo + 1:hi + 1] > g.indptr[lo:hi])
    if nonempty.size:
        offsets = g.indptr[lo:hi][nonempty] - start
        seg[nonempty] = ufunc.reduceat(gathered, offsets)
    ufunc(values[lo:hi], seg, out=out[lo:hi])


def neighbor_reduce(g: Graph, values: np.ndarray, kind: str, fill,
                    workers: int = 1, pool=None) -> np.ndarray:
    """One reduction round; `fill` must be the identity of the op."""
    ufunc = _UFUNCS[kind]
    out = np.empty_like(values)
    chunks = max(min(workers, g.n // ROWS_PER_CHUNK), 1)
    bounds = np.linspace(0, g.n, chunks + 1).astype(np.int64)
    if pool is None or chunks == 1:
        for i in range(chunks):
            _reduce_rows(g, values, out, ufunc, fill, bounds[i], bounds[i + 1])
    else:
        # run in a copy of the caller's context, so its np.errstate holds
        futures = [
            pool.submit(contextvars.copy_context().run, _reduce_rows, g,
                        values, out, ufunc, fill, bounds[i], bounds[i + 1])
            for i in range(chunks)
        ]
        for future in futures:
            future.result()
    return out
