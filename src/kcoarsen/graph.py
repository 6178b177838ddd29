"""Sparse undirected graph container, construction, file IO and traversals.

A :class:`Graph` stores a normalized simple graph in compressed adjacency
(CSR) form: no self-loops, no parallel edges, neighbor lists sorted
ascending.  Graphs are immutable values; every algorithm in this package
returns new objects instead of mutating inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._propagate import flood, neighbor_reduce

# Largest graph the explicit k-th power construction will accept.
DEFAULT_ORACLE_CAP = 100_000

# Sources per bit-parallel search batch: one bit of a uint64 mask each.
BFS_BATCH = 64

# Rows per joined write of the text writers: bounds the text in memory.
WRITE_CHUNK = 1 << 16

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "Graph",
    "GraphFormatError",
    "NodeWeights",
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

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

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


@dataclass(frozen=True)
class NodeWeights:
    """Finite, strictly positive per-node weights."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("node weights must be one-dimensional")
        if values.size and not np.all((values > 0) & np.isfinite(values)):
            raise ValueError("node weights must be finite and strictly positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def ones(cls, n: int) -> "NodeWeights":
        return cls(np.ones(n))

    @classmethod
    def uniform(cls, n: int, low: float = 1.0, high: float = 100.0,
                seed=0) -> "NodeWeights":
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(low, high, n))

    @classmethod
    def coerce(cls, obj, n: int) -> "NodeWeights":
        """Wrap an array-like as NodeWeights and check its length."""
        w = obj if isinstance(obj, cls) else cls(np.asarray(obj, dtype=np.float64))
        if len(w) != n:
            raise ValueError(f"expected {n} node weights, got {len(w)}")
        return w


def _build_arrays(u: np.ndarray, v: np.ndarray, w: np.ndarray | None,
                  n: int) -> Graph:
    """Assemble a normalized Graph from parallel endpoint arrays."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size:
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            raise ValueError("edge endpoint outside 0..n-1")
        if w is not None and w.size and not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("edge weights must be finite and strictly positive")
    if n > 3_037_000_499:
        raise ValueError(f"n={n} is too large: edge keys n*u + v overflow int64")
    keep = u != v
    u, v = u[keep], v[keep]
    # One sort on the canonical key, stable when weights ride along, so
    # each pair's parallel weights sum in input order.
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind=None if w is None else "stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if w is not None:
        with np.errstate(over="ignore"):  # reported below as a ValueError
            w = np.add.reduceat(np.asarray(w, dtype=np.float64)[keep][order], first)
        if not np.isfinite(w).all():
            raise ValueError("parallel edge weights sum beyond float64's range")
    key = key[first]
    # the arcs' keys src*n + dst are distinct, so any sort gives CSR order
    arcs = np.concatenate([key, key % n * n + key // n])
    order = None if w is None else np.argsort(arcs)
    arcs = np.sort(arcs) if w is None else arcs[order]
    return Graph(n=n, m=key.size, indptr=np.searchsorted(arcs, np.arange(n + 1) * n),
                 indices=arcs % n, weights=None if w is None else np.concatenate([w, w])[order])


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


def data_lines(fh):
    """Yield (lineno, stripped line), skipping blanks and '#'/'%' comments."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and line[0] not in "#%":
            yield lineno, line


# Byte classes of the edgelist fast path: 1 space or tab, 2 newline, 3 digit
# or sign, 4 '.' or exponent, 0 any other byte (the line loop reads those).
_NEWLINE, _FRACTION = 2, 4
_BYTE_CLASS = np.zeros(256, dtype=np.int8)
for _cls, _chars in enumerate((b" \t", b"\n", b"0123456789+-", b".eE"), 1):
    _BYTE_CLASS[np.frombuffer(_chars, np.uint8)] = _cls


def _fast_edgelist(data: bytes):
    """An edgelist's (ends, weights) from one C-level parse, or None.

    Takes leading ASCII '#'/'%' lines, then lines that all hold two
    integer ids, or all three columns with a decimal weight, split by
    spaces or tabs and ended by '\n', as kcoarsen writes them.  Anything
    else (blank lines, '\r', '1_000', 'inf', mixed column counts, ...)
    gives None: the line loop reads it, with its exact errors.
    """
    start = 0
    while data.startswith((b"#", b"%"), start):
        start = data.find(b"\n", start) + 1 or len(data)
    if b"\r" in data[:start] or not data[:start].isascii():
        return None
    cls = _BYTE_CLASS[np.frombuffer(data, np.uint8, offset=start)]
    if not cls.size or cls[-1] != _NEWLINE or not cls.all():
        return None
    # tokens are the runs between separators, and the last byte is one
    starts, stops = np.flatnonzero(np.diff(cls <= _NEWLINE, prepend=True)).reshape(-1, 2).T
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(cls == _NEWLINE)), prepend=0)
    cols = int(per_line[0])
    # ids hold no '.' or exponent, and fit int64 (18 characters) or, in
    # a float parse, the float64 mantissa (15)
    fraction = np.searchsorted(starts, np.flatnonzero(cls == _FRACTION), "right") - 1
    if (cols not in (2, 3) or (per_line != cols).any() or (fraction % cols != 2).any()
            or ((stops - starts).reshape(-1, cols)[:, :2] > 18 - 3 * (cols - 2)).any()):
        return None
    # A token that is not exactly one number leaves unmatched data: a
    # space separator must match whitespace, so no token splits in two.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 only warns on it
            values = np.fromstring(data[start:], sep=" ",
                                   dtype=np.float64 if cols == 3 else np.int64)
    except (ValueError, DeprecationWarning):
        return None
    values = values.reshape(-1, cols)
    w = values[:, 2].copy() if cols == 3 else None
    if w is None or np.all((w > 0) & (w < np.inf)):
        return values[:, :2].astype(np.int64), w
    return None


def _parse_edgelist(path: Path):
    parsed = _fast_edgelist(path.read_bytes())
    ends, w = parsed if parsed is not None else _line_edgelist(path)
    ids, dense = np.unique(ends, return_inverse=True)
    u, v = dense.reshape(-1, 2).T
    return _build_arrays(u, v, w, ids.size), ids


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


def _line_edgelist(path: Path):
    """The line loop: (ends, weights) of any edgelist, or GraphFormatError."""
    us, vs, ws = [], [], []
    any_weight = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
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
    w = np.array([1.0 if x is None else x for x in ws]) if any_weight else None
    return np.array([us, vs], dtype=np.int64).T, w


def _parse_matrix_market(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines or not lines[0].lower().startswith("%%matrixmarket"):
        raise GraphFormatError(path, 1, "missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5:
        raise GraphFormatError(path, 1, f"malformed header: {lines[0].strip()!r}")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix" or fmt != "coordinate":
        raise GraphFormatError(path, 1, "only coordinate matrices are supported")
    if field not in ("real", "integer", "pattern"):
        raise GraphFormatError(path, 1, f"unsupported field type {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise GraphFormatError(path, 1, f"unsupported symmetry {symmetry!r}")
    pattern = field == "pattern"

    lineno = 1
    size = None
    entries: dict[tuple[int, int], float | None] = {}
    seen = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if size is None:
            if len(parts) != 3:
                raise GraphFormatError(path, lineno,
                                       f"expected 'rows cols nnz', got {line!r}")
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise GraphFormatError(path, lineno,
                                       f"size line must be integers: {line!r}") from None
            if rows != cols:
                raise GraphFormatError(path, lineno,
                                       f"adjacency matrix must be square, got {rows}x{cols}")
            if min(rows, nnz) < 0:
                raise GraphFormatError(path, lineno,
                                       f"size line must be non-negative: {line!r}")
            size = (rows, nnz)
            continue
        expected = 2 if pattern else 3
        if len(parts) != expected:
            raise GraphFormatError(path, lineno,
                                   f"expected {expected} fields per entry, got {line!r}")
        try:
            i = int(parts[0])
            j = int(parts[1])
        except ValueError:
            raise GraphFormatError(path, lineno,
                                   f"entry indices must be integers: {line!r}") from None
        if not (1 <= i <= size[0] and 1 <= j <= size[0]):
            raise GraphFormatError(path, lineno, f"entry out of bounds: {line!r}")
        value = None
        if not pattern:
            try:
                value = float(parts[2])
            except ValueError:
                raise GraphFormatError(path, lineno,
                                       f"entry value must be a real number: {line!r}") from None
            if not 0 < value < np.inf:
                raise GraphFormatError(path, lineno,
                                       f"entry value must be finite and positive: {line!r}")
        seen += 1
        # Store one canonical entry per unordered pair.  A symmetric value
        # stored in both triangles must agree; summing it would double the
        # edge weight.
        key = (min(i, j), max(i, j))
        if key in entries:
            if entries[key] != value:
                raise GraphFormatError(path, lineno,
                                       f"conflicting duplicate entry: {line!r}")
        else:
            entries[key] = value
        if seen > size[1]:
            raise GraphFormatError(path, lineno, "more entries than declared nnz")
    if size is None:
        raise GraphFormatError(path, lineno, "missing size line")
    if seen < size[1]:
        raise GraphFormatError(path, lineno,
                               f"expected {size[1]} entries, found {seen}")
    n = size[0]
    u, v = (np.array(list(entries), dtype=np.int64).reshape(-1, 2) - 1).T
    w = None if pattern else np.array(list(entries.values()), dtype=np.float64)
    return _build_arrays(u, v, w, n), np.arange(1, n + 1, dtype=np.int64)


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


def store(g: Graph, path, header_lines=()) -> None:
    """Write a graph as an edgelist; weights use round-trip float repr."""
    write_table(path, header_lines, *(col for col in g.edge_list() if col is not None))


def write_table(path, header_lines, *columns) -> None:
    """Write '# ' header lines, then aligned columns as space-separated rows.

    Integers print as ``str`` and floats as round-trip ``repr``, once per
    distinct value; rows go out joined, WRITE_CHUNK at a time.
    """
    cells = []
    for col, end in zip(columns, [" "] * (len(columns) - 1) + ["\n"]):
        values, at = np.unique(col, return_inverse=True)
        text = repr if values.dtype.kind == "f" else str
        cells.append(np.array([text(x) + end for x in values.tolist()], dtype=object)[at])
    rows = np.stack(cells, axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines))
        for first in range(0, len(rows), WRITE_CHUNK):
            fh.write("".join(rows[first:first + WRITE_CHUNK].ravel().tolist()))


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
    distinct, slot = np.unique(sources, return_inverse=True)
    bit = np.uint64(1) << (slot % BFS_BATCH).astype(np.uint64)
    for first in range(0, distinct.size, BFS_BATCH):
        pending = np.flatnonzero(slot // BFS_BATCH == first // BFS_BATCH)
        start = np.zeros(g.n, dtype=np.uint64)
        start[sources[pending]] = bit[pending]
        levels = flood(g, start, "or", np.uint64(0), max_depth, neighbor_reduce)
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
    always unweighted.
    """
    if k < 1:
        raise ValueError("power requires k >= 1")
    if g.n > oracle_cap:
        raise ValueError(f"power() refused: n={g.n} exceeds cap {oracle_cap}")
    if k == 1:
        return Graph(n=g.n, m=g.m, indptr=g.indptr, indices=g.indices)
    adj = [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(g.n)]
    stamp = [-1] * g.n
    us: list[int] = []
    vs: list[int] = []
    for s in range(g.n):
        stamp[s] = s
        frontier = [s]
        for _ in range(k):
            nxt = []
            for node in frontier:
                for t in adj[node]:
                    if stamp[t] != s:
                        stamp[t] = s
                        nxt.append(t)
                        if t > s:
                            us.append(s)
                            vs.append(t)
            if not nxt:
                break
            frontier = nxt
    return _build_arrays(np.array(us, dtype=np.int64),
                         np.array(vs, dtype=np.int64), None, g.n)


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
            low = neighbor_reduce(g, parent, "min", np.int64(g.n))
            if np.array_equal(low, parent):
                break
            np.minimum.at(nxt, parent, low)
        parent = nxt
    roots, labels = np.unique(parent, return_inverse=True)
    return int(roots.size), labels
