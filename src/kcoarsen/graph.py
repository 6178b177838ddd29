"""Sparse undirected graph container, construction, file IO and traversals.

A :class:`Graph` stores a normalized simple graph in compressed adjacency
(CSR) form: no self-loops, no parallel edges, neighbor lists sorted
ascending.  Graphs are immutable values; every algorithm in this package
returns new objects instead of mutating inputs.
Edges travel as keys ``min * n + max``: `_edge_keys` is their one
encoder and `_fold` their one fold; `_distinct` is internal.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._propagate import (ARC_BLOCK, Jagged, flood, jagged_layout,
                         neighbor_reduce, sorted_unique)

# Largest graph the explicit k-th power construction will accept.
DEFAULT_ORACLE_CAP = 100_000

# Sources per bit-parallel search batch: one bit of a uint64 mask each.
BFS_BATCH = 64

# Rows per block of the text writers: a block's (bytes, rows) array, its
# records and its text are all that is alive of the output at a time.
WRITE_CHUNK = 1 << 16

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "Graph",
    "GraphFormatError",
    "as_node_weights",
    "bfs",
    "build",
    "connected_components",
    "load",
    "power",
    "store",
]


class GraphFormatError(ValueError):
    """A graph file could not be parsed; carries the offending location."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}, line {lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in CSR form.

    Attributes
    ----------
    n : int
        Number of nodes; node ids are 0..n-1.
    m : int
        Number of undirected edges.
    indptr : np.ndarray
        int64 array of length n+1; neighbors of v live in
        ``indices[indptr[v]:indptr[v+1]]``.
    indices : np.ndarray
        int64 array of length 2m; each neighbor list is sorted ascending.
    weights : np.ndarray | None
        Optional float64 array aligned with ``indices``.  Symmetric: the
        entry for u->v equals the entry for v->u, and all entries are > 0.
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have length n + 1")
        if self.indices.shape != (2 * self.m,):
            raise ValueError("indices must have length 2 * m")
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise ValueError("weights must align with indices")
        for arr in (self.indptr, self.indices, self.weights):
            if arr is not None:
                arr.setflags(write=False)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only per-node neighbor counts, computed once."""
        degrees = np.diff(self.indptr)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def jagged(self) -> Jagged:
        """The rows' jagged-diagonal layout for full sweeps, built on first
        use and cached; `coarsen_pipeline` drops one that it built."""
        return jagged_layout(self)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Unique undirected edges as (u, v, w) arrays with u < v."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.indices
        w = self.weights[keep] if self.weights is not None else None
        return src[keep], self.indices[keep], w

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        if not (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        return self.weights is None or np.array_equal(self.weights, other.weights)

    __hash__ = None


def as_node_weights(values, n: int) -> np.ndarray:
    """`values` as a read-only float64 copy of n finite, positive node weights."""
    x = np.array(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("node weights must be one-dimensional")
    if not np.all((x > 0) & np.isfinite(x)):
        raise ValueError("node weights must be finite and strictly positive")
    if x.size != n:
        raise ValueError(f"expected {n} node weights, got {x.size}")
    x.setflags(write=False)
    return x


def _build_arrays(u: np.ndarray, v: np.ndarray, w: np.ndarray | None,
                  n: int) -> Graph:
    """Assemble a normalized Graph from parallel endpoint arrays.

    Checks the ends and weights, then merges by `_coalesce` the
    `_edge_keys` of the edges.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size:
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            raise ValueError("edge endpoint outside 0..n-1")
        if w is not None and w.size and not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("edge weights must be finite and strictly positive")
    w = None if w is None else np.asarray(w, np.float64)
    return _coalesce(_edge_keys(u, v, n), w, n)


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The key ``min * n + max`` of each edge (u, v), -1 for a self-loop,
    formed ARC_BLOCK edges at a time into one array: the one encoder, of
    input edges, crossing edges and coarse artifact rows alike."""
    if n > 3_037_000_499:
        raise ValueError(f"n={n} is too large: edge keys n*u + v overflow int64")
    key = np.empty(u.size, dtype=np.int64)
    for first in range(0, u.size, ARC_BLOCK):
        a, b = u[first:first + ARC_BLOCK], v[first:first + ARC_BLOCK]
        block = key[first:first + ARC_BLOCK]
        np.minimum(a, b, out=block)
        block *= n
        block += np.maximum(a, b)
        block[a == b] = -1
    return key


def _coalesce(key: np.ndarray, w: np.ndarray | None, n: int) -> Graph:
    """The Graph of `_edge_keys` and their weights, `key` overwritten:
    `_fold` drops the self-loops and sums parallel edges' weights."""
    return _assemble(*_fold(key, w, None if w is None else "sum",
                            overflow="parallel edge weights sum beyond float64's range"), n)


def _fold(key: np.ndarray, w: np.ndarray | None, how: str | None, *,
          overflow: str = "weights sum beyond float64's range"
          ) -> tuple[np.ndarray, np.ndarray | None]:
    """The one fold of equal keys: the sorted distinct non-negative keys,
    a view of `key`, which is sorted in place (weighted keys by a stable
    argsort that carries the weights), and each one's weights folded in
    input order by `_aggregate(..., how, overflow)`.  Unweighted keys
    weigh 1 each: a sum is the run length, max, min and mean are 1.0,
    and with `how` None no weights are built.
    """
    if w is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        w = w[order]
        del order
    loops = np.searchsorted(key, 0)
    key = key[loops:]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    count = starts.size
    if w is not None:
        w = _aggregate(w[loops:], np.cumsum(first) - 1, count, how, overflow)
    del first
    key[:count] = key[starts]
    if w is None and how is not None:
        w = np.ones(count)
        if how == "sum" and count:  # the run lengths
            np.subtract(starts[1:], starts[:-1], out=w[:-1])
            w[-1] = key.size - starts[-1]
    return key[:count], w


def _assemble(key: np.ndarray, w: np.ndarray | None, n: int) -> Graph:
    """The Graph of sorted distinct edge keys ``lo * n + hi`` (lo < hi)
    and their weights, assembled in place: `key` is overwritten."""
    m = key.size
    # the arcs' keys src*n + dst are distinct, so any sort gives CSR order
    arcs = np.empty(2 * m, dtype=np.int64)
    arcs[:m] = key
    np.divmod(key, n, out=(arcs[m:], key))  # the reverse arcs: hi * n + lo
    key *= n
    arcs[m:] += key
    del key
    if w is None:
        arcs.sort()
    else:
        order = np.argsort(arcs)
        arcs = arcs[order]
        order %= m  # arcs i and m + i carry edge i's weight
        w = w[order]
        del order
    indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
    arcs %= n
    return Graph(n=n, m=m, indptr=indptr, indices=arcs, weights=w)


def _aggregate(values: np.ndarray, groups: np.ndarray, count: int,
               how: str, overflow: str) -> np.ndarray:
    """Fold `values` into `count` groups in the order given, by `how` (sum,
    mean, max or min); a sum beyond float64 raises ValueError(overflow)."""
    if how in ("max", "min"):
        out = np.full(count, -np.inf if how == "max" else np.inf)
        (np.maximum if how == "max" else np.minimum).at(out, groups, values)
        return out
    sums = np.bincount(groups, weights=values, minlength=count)
    sums = sums.astype(np.float64, copy=False)  # int64 when groups is empty
    over = np.isinf(sums)
    if how == "sum":
        if over.any():
            raise ValueError(overflow)
        return sums
    sizes = np.bincount(groups, minlength=count)
    means = sums / np.maximum(sizes, 1)
    if over.any():  # finite weights have a finite mean: sum them scaled by 2**-64
        hit = over[groups]
        scaled = np.bincount(groups[hit], weights=values[hit] * 2.0**-64, minlength=count)
        means[over] = scaled[over] / sizes[over] * 2.0**64
    return means


def build(edges, n: int | None = None) -> Graph:
    """Build a normalized graph from an iterable of edges.

    Each edge is a (u, v) or (u, v, weight) tuple.  Self-loops are
    dropped and parallel edges are coalesced; when any edge carries an
    explicit weight, duplicates are merged by summing (edges without an
    explicit weight count as 1.0).  When n is omitted it is inferred as
    max endpoint + 1.

    Raises ValueError for endpoints outside 0..n-1 or explicit weights
    that are not finite and positive.
    """
    edges = list(edges)
    for edge in edges:
        if len(edge) not in (2, 3):
            raise ValueError(f"edge must have 2 or 3 entries, got {edge!r}")
    ends = np.array([edge[:2] for edge in edges], dtype=np.int64).reshape(-1, 2)
    w = None
    if any(len(edge) == 3 for edge in edges):
        w = np.array([1.0 if len(edge) == 2 or edge[2] is None else edge[2]
                      for edge in edges], dtype=np.float64)
    if n is None:
        n = int(ends.max()) + 1 if ends.size else 0
    return _build_arrays(ends[:, 0], ends[:, 1], w, n)


def data_lines(fh, start: int = 1):
    """Yield (lineno, stripped line), the lines numbered from `start`,
    skipping blanks and '#'/'%' comments."""
    for lineno, raw in enumerate(fh, start=start):
        line = raw.strip()
        if line and line[0] not in "#%":
            yield lineno, line


def _fast_edgelist(path, skip: int = 0):
    """An edgelist's (ends, weights) from numpy's C text loader, or None;
    a two-column file's ends are a view of the loader's rows.

    Skips the first `skip` lines, and the blank and '#'/'%' lines before
    the first data line after them, then
    takes rows that all hold that line's column count: two integer ids,
    or those and a weight.  Whatever the loader refuses (a bad token, an
    id beyond int64, mixed column counts, a later comment, a warning),
    and a weight that is not finite and positive, gives None: the line
    loop reads that file, with its exact errors.
    """
    # Lines are counted split at b"\n" alone.  The loader, like the line
    # loop, also ends lines at '\r', so a skipped line with a '\r' inside
    # may hide a data line: the line loop reads that file.
    with open(path, "rb") as fh:
        for at, line in enumerate(fh):
            if at >= skip and line.strip() and not line.startswith((b"#", b"%")):
                break
            if b"\r" in line.rstrip(b"\r\n"):
                return None
        else:
            return None
    cols = len(line.split())
    if cols not in (2, 3):
        return None
    try:
        with warnings.catch_warnings():
            # say, "input contained no data" when the data line is blank
            # to str.split, or numpy 1.x's warning as it reads '1.0' as 1
            warnings.simplefilter("error")
            rows = np.loadtxt(path, comments=None, skiprows=at, encoding="utf-8",
                              ndmin=1, dtype=[("u", np.int64), ("v", np.int64),
                                              ("w", np.float64)][:cols])
    except (ValueError, Warning):
        return None
    if cols == 2:  # the rows' two int64 fields are the table's columns
        return rows.view(np.int64).reshape(-1, 2), None
    w = rows["w"].copy()
    if np.all((w > 0) & (w < np.inf)):
        return np.stack([rows["u"], rows["v"]], axis=1), w
    return None


def _edge_table(path, skip: int = 0, fill: float = 1.0):
    """(ends, weights) of an edgelist after its first `skip` lines: the
    fast path, else the line loop, which gives a row without a weight
    `fill` when others have one."""
    parsed = _fast_edgelist(path, skip)
    return parsed if parsed is not None else _line_edgelist(path, skip, fill)


def _parse_edgelist(path: Path):
    ends, w = _edge_table(path)
    ids = _renumber(ends)
    key = _edge_keys(ends[:, 0], ends[:, 1], ids.size)
    del ends  # the keys replace the id table; `_coalesce` sorts them in place
    return _coalesce(key, w, ids.size), ids


def _renumber(ends: np.ndarray) -> np.ndarray:
    """The sorted distinct ids of an (m, 2) id table, whose ids it replaces
    by their indices in them, in place, ARC_BLOCK rows at a time.

    Ids whose range is at most the table's size number through a
    presence array, others by binary search of their sorted values.
    """
    if not ends.size:
        return np.empty(0, dtype=np.int64)
    lo = ends.min()
    span = int(ends.max()) - int(lo) + 1
    blocks = [ends[first:first + ARC_BLOCK] for first in range(0, len(ends), ARC_BLOCK)]
    if span <= ends.size:
        present = np.zeros(span, dtype=bool)
        for block in blocks:
            present[block - lo] = True
        dense = np.cumsum(present) - 1
        for block in blocks:  # each block is a view: the table itself changes
            block[...] = dense[block - lo]
        return lo + np.flatnonzero(present)
    ids = sorted_unique(ends)
    for block in blocks:
        block[...] = np.searchsorted(ids, block)
    return ids


def _id_pair(path, lineno: int, line: str) -> tuple[int, int]:
    """A line's first two tokens as int64 node ids, or GraphFormatError."""
    try:
        u, v = (int(tok) for tok in line.split()[:2])
    except ValueError:
        raise GraphFormatError(path, lineno,
                               f"node ids must be integers: {line!r}") from None
    if not -2**63 <= min(u, v) <= max(u, v) < 2**63:
        raise GraphFormatError(path, lineno, f"node ids must fit int64: {line!r}")
    return u, v


def _line_edgelist(path: Path, skip: int = 0, fill: float = 1.0):
    """The line loop: (ends, weights) of any edgelist after its first
    `skip` lines, or GraphFormatError."""
    us, vs, ws = [], [], []
    any_weight = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(itertools.islice(fh, skip, None), skip + 1):
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(path, lineno,
                                       f"expected 'u v [w]', got {line!r}")
            u, v = _id_pair(path, lineno, line)
            w = None
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(path, lineno,
                                           f"weight must be a real number: {line!r}") from None
                if not 0 < w < np.inf:
                    raise GraphFormatError(path, lineno,
                                           f"edge weight must be finite and positive: {line!r}")
                any_weight = True
            us.append(u)
            vs.append(v)
            ws.append(w)
    w = np.array([fill if x is None else x for x in ws]) if any_weight else None
    return np.array([us, vs], dtype=np.int64).T, w


def _parse_matrix_market(path: Path):
    """A coordinate file's graph and ids 1..n: the header and size line
    here, the entries by `_edge_table` after them (NaN for a missing
    value), checked as arrays and folded by `_fold`."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline()
        skip, line = next(data_lines(fh, start=2), (1, None))  # the size line
    if not head.lower().startswith("%%matrixmarket"):
        raise GraphFormatError(path, 1, "missing %%MatrixMarket header")
    header = head.split()
    if len(header) != 5:
        raise GraphFormatError(path, 1, f"malformed header: {head.strip()!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise GraphFormatError(path, 1, "only coordinate matrices are supported")
    if field not in ("real", "integer", "pattern"):
        raise GraphFormatError(path, 1, f"unsupported field type {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise GraphFormatError(path, 1, f"unsupported symmetry {symmetry!r}")
    pattern = field == "pattern"

    if line is None:
        raise GraphFormatError(path, skip, "missing size line")
    parts = line.split()
    if len(parts) != 3:
        raise GraphFormatError(path, skip, f"expected 'rows cols nnz', got {line!r}")
    try:
        n, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise GraphFormatError(path, skip, f"size line must be integers: {line!r}") from None
    if n != cols:
        raise GraphFormatError(path, skip, f"adjacency matrix must be square, got {n}x{cols}")
    if min(n, nnz) < 0:
        raise GraphFormatError(path, skip, f"size line must be non-negative: {line!r}")

    ends, w = _edge_table(path, skip, fill=np.nan)
    if len(ends) != nnz:
        raise GraphFormatError(path, skip, f"expected {nnz} entries, found {len(ends)}")
    odd = (np.zeros(nnz, dtype=bool) if w is None else ~np.isnan(w)) == pattern
    if odd.any():  # a value in a pattern file, or none in another
        raise _entry_error(path, skip, odd.argmax(),
                           f"expected {2 if pattern else 3} fields per entry")
    if nnz and (int(ends.min()) < 1 or int(ends.max()) > n):
        raise _entry_error(path, skip, np.argmax(((ends < 1) | (ends > n)).any(axis=1)),
                           "entry out of bounds")
    ends -= 1
    key = _edge_keys(ends[:, 0], ends[:, 1], n)
    if not pattern:  # a diagonal entry keys as lo * n + hi too: its values are checked
        loops = np.flatnonzero(key < 0)
        key[loops] = ends[loops, 0] * (n + 1)
    del ends  # the keys replace the table
    ids = np.arange(1, n + 1, dtype=np.int64)
    if pattern:  # `_coalesce` sorts the keys in place and drops the diagonal
        return _coalesce(key, None, n), ids
    order = np.argsort(key, kind="stable")  # `_fold` then sorts sorted keys: fast
    key, w = key[order], (w[order] if nnz else np.empty(0))  # no rows: w is None
    clash = (key[1:] == key[:-1]) & (w[1:] != w[:-1])  # stored values must agree
    if clash.any():  # a run's first entry is its pair's first stored one
        raise _entry_error(path, skip, order[np.isin(key, key[1:][clash])].min(),
                           "conflicting duplicate entry")
    del order
    keys, low = _fold(key, w, "min")
    off = keys % (n + 1) != 0  # lo * n + hi with lo < hi
    return _assemble(keys[off], low[off], n), ids


def _entry_error(path, skip: int, entry, message: str) -> GraphFormatError:
    """`message` at data line `entry` (from 0) after line `skip`, quoted."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = data_lines(itertools.islice(fh, skip, None), start=skip + 1)
        lineno, line = next(itertools.islice(lines, int(entry), None))
    return GraphFormatError(path, lineno, f"{message}: {line!r}")


_FORMAT_ALIASES = {
    "edgelist": "edgelist",
    "mm": "matrix_market",
    "matrix_market": "matrix_market",
}


def load(path, format: str = "edgelist") -> tuple[Graph, np.ndarray]:
    """Load a graph file.

    Node ids are remapped to a dense 0..n-1 range; returns the graph and
    the array of original ids (dense index -> original id).  Edgelist
    files hold one ``u v [w]`` edge per line with '#'/'%' comments;
    Matrix Market coordinate files keep their declared dimension, so
    isolated nodes survive.
    """
    fmt = _FORMAT_ALIASES.get(format)
    if fmt is None:
        raise ValueError(f"unknown graph format {format!r}")
    path = Path(path)
    if fmt == "edgelist":
        return _parse_edgelist(path)
    return _parse_matrix_market(path)


def store(g, path, header_lines=()) -> None:
    """Write a Graph, or any object with its `edge_list()` (such as a
    CoarsenedGraph), as an edgelist; weights use round-trip float repr."""
    write_table(path, header_lines, *(col for col in g.edge_list() if col is not None))


def write_table(path, header_lines, *columns) -> None:
    """Write '# ' header lines, then aligned columns as space-separated rows.

    Integers print as ``str`` and floats as round-trip ``repr``; the rows
    go out as the bytes `table_text` yields, WRITE_CHUNK rows at a time.
    """
    with _create(path) as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode())
        for block in table_text(columns, " "):
            fh.write(block)


def _create(path, mode: str = "wb", **open_kw):
    """Open a new file at `path`, making its directory: an existing file
    is unlinked, not truncated, so a hard link or symlink there is
    replaced and its target left alone.  Truncating, or an atomic rename
    from a temporary file, waits for the old file's write-back on ext4.
    Nothing is fsynced: a crash mid-write can leave a partial set; re-run."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).unlink(missing_ok=True)
    return open(path, mode, **open_kw)


def table_text(columns, sep: str):
    """Yield aligned columns' text as ASCII bytes, WRITE_CHUNK rows a block.

    Cells end in `sep`, the last of a row in a newline.  Integers print
    as ``str`` and floats as round-trip ``repr``.  A block is a (bytes,
    rows) array whose columns are the rows' records: per column a
    NUL-padded field and a separator byte.  An integer field is a sign
    byte and right-aligned digits, a float field the ``repr`` of the
    value's bit pattern.  The block's text is its records' bytes with
    the NULs deleted.
    """
    columns = [np.asarray(col) for col in columns]
    tables = [None] * len(columns)
    for i, col in enumerate(columns):
        if col.dtype.kind == "f":  # the column becomes indices into its table
            tables[i], columns[i] = _float_cells(col)
    ends = [ord(sep)] * (len(columns) - 1) + [ord("\n")]
    for first in range(0, len(columns[0]) if columns else 0, WRITE_CHUNK):
        fields = []
        for col, table, end in zip(columns, tables, ends):
            part = col[first:first + WRITE_CHUNK]
            fields.append(_int_cells(part) if table is None else table[:, part])
            fields.append(np.full((1, part.size), end, dtype=np.uint8))
        yield np.concatenate(fields).T.tobytes().translate(None, b"\0")


def _int_cells(col: np.ndarray) -> np.ndarray:
    """An integer column's NUL-padded fields, as (sign + digits, rows) bytes."""
    # -2**63 is its own absolute value: 2**63 as uint64
    rest = np.abs(col.astype(np.int64, copy=False)).view(np.uint64)
    width = len(str(int(rest.max())))
    out = np.empty((width + 1, rest.size), dtype=np.uint8)
    out[0] = (col < 0) * ord("-")
    ten = np.uint64(10)
    for j in range(width, 0, -1):  # rest is the value // 10**(width - j)
        quot = rest // ten  # division by a scalar beats % by 5x
        np.subtract(rest, quot * ten, out=out[j], casting="unsafe")
        out[j] += ord("0")
        if j < width:
            out[j] *= rest > 0  # a leading zero becomes NUL
        rest = quot
    return out


def _float_cells(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(texts, at): the ``repr`` of each distinct value of a float column
    as NUL-padded (bytes, distinct) columns, and each row's value.

    A column of positive integers below 2**53 groups by its int64
    values, which `_distinct` numbers through a presence array when
    their range is small.  Any other one groups by bit pattern, which
    keeps the texts of 0.0 and -0.0 apart.
    """
    col = col.astype(np.float64, copy=False)
    if np.all((col > 0) & (col < 2.0**53)) and np.all(col == np.floor(col)):
        values, at = _distinct(col.astype(np.int64))
        values = values.astype(np.float64)
    else:
        values, at = _distinct(col.view(np.int64))
        values = values.view(np.float64)
    text = np.array([repr(x) for x in values.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(values.size, text.itemsize).T.copy(), at


def _distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, each row's index into them) of a column;
    internal to this module: other modules fold keys by `_fold`.

    An integer column whose value range is at most its length takes a
    presence array.  Any other one takes one unstable np.argsort: the
    sorted column's runs are its distinct values, and a cumsum over the
    run starts numbers them.
    """
    if col.dtype.kind == "i" and col.size:
        lo = col.min()
        span = int(col.max()) - int(lo) + 1
        if span <= col.size:
            offset = col - lo
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            values = (lo + np.flatnonzero(present)).astype(col.dtype, copy=False)
            return values, (np.cumsum(present) - 1)[offset]
    order = np.argsort(col)
    col = col[order]
    first = np.concatenate(([True], col[1:] != col[:-1]))[:col.size]
    values = col[first]
    del col  # order, runs and at are the peak of a large call
    runs = np.cumsum(first) - 1
    at = np.empty_like(runs)
    at[order] = runs
    return values, at


def bfs(g: Graph, sources, targets, max_depth: int | None = None) -> np.ndarray:
    """Hop distance d(sources[i], targets[i]) for every pair i, as int64.

    Bit-parallel multi-source BFS (Then et al., VLDB 2015): BFS_BATCH
    distinct sources at a time each own one bit of a uint64 mask per
    node, and each level is one "or" `flood` round over closed
    neighborhoods; a pair resolves at the level its source's bit reaches
    its target.  Unreachable pairs, and those beyond `max_depth` when
    given, hold the sentinel ``g.n``.  Raises ValueError for a node
    outside 0..n-1 or a negative `max_depth`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    for what, ids in (("source", sources), ("target", targets)):
        bad = ids[(ids < 0) | (ids >= g.n)]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} outside 0..{g.n - 1}")
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have the same length")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    dist = np.full(sources.size, g.n, dtype=np.int64)
    _, slot = _distinct(sources)
    bit = np.uint64(1) << (slot % BFS_BATCH).astype(np.uint64)
    # each batch's pairs in pair order, by one stable sort on the batch
    batch = slot // BFS_BATCH
    by_batch = np.argsort(batch, kind="stable")
    ends = np.cumsum(np.bincount(batch)).tolist()
    for first, end in zip([0] + ends, ends):
        pending = by_batch[first:end]
        start = np.zeros(g.n, dtype=np.uint64)
        start[sources[pending]] = bit[pending]
        levels = flood(g, start, "or", max_depth, neighbor_reduce)
        for depth, seen in enumerate(levels):
            hit = (seen[targets[pending]] & bit[pending]) != 0
            dist[pending[hit]] = depth
            pending = pending[~hit]
            if not pending.size:
                break
    return dist


def power(g: Graph, k: int, oracle_cap: int = DEFAULT_ORACLE_CAP) -> Graph:
    """Explicit k-th power: u ~ v iff their hop distance is in 1..k.

    Materializing the power graph is oracle support for small graphs
    only; refuses when ``g.n`` exceeds `oracle_cap`.  The result is
    always unweighted.  As in `bfs`, BFS_BATCH sources own a bit each of
    a mask per node; after a k-step "or" `flood` each set bit is a pair.
    """
    if k < 1:
        raise ValueError("power requires k >= 1")
    if g.n > oracle_cap:
        raise ValueError(f"power() refused: n={g.n} exceeds cap {oracle_cap}")
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for first in range(0, g.n, BFS_BATCH):
        width = min(BFS_BATCH, g.n - first)
        start = np.zeros(g.n, dtype=np.uint64)
        start[first:first + width] = np.uint64(1) << np.arange(width, dtype=np.uint64)
        for seen in flood(g, start, "or", k, neighbor_reduce):
            pass
        reached = np.flatnonzero(seen)
        bits = np.unpackbits(seen[reached].astype("<u8").view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")  # column j: bit j
        row, source = np.nonzero(bits)
        us.append(reached[row])
        vs.append(first + source)
    # each source reaches itself (a self-loop) and every pair shows twice
    return _build_arrays(np.concatenate(us), np.concatenate(vs), None, g.n)


def connected_components(g: Graph) -> tuple[int, np.ndarray]:
    """Component count and a per-node label array.

    Labels are assigned in order of the smallest node id per component,
    so the result is deterministic.  Hook-and-jump (Shiloach & Vishkin,
    1982): jump pointers until every tree is a star, then hook each root
    to the smallest root next to its tree, until no root can hook.
    """
    parent = np.arange(g.n, dtype=np.int64)
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            low = neighbor_reduce(g, parent, "min")
            if np.array_equal(low, parent):
                break
            np.minimum.at(nxt, parent, low)
        parent = nxt
    roots, labels = _distinct(parent)
    return int(roots.size), labels
