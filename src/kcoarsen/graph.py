"""Sparse undirected graph container, construction, file IO and traversals.

A :class:`Graph` stores a normalized simple graph in compressed adjacency
(CSR) form: no self-loops, no parallel edges, neighbor lists sorted
ascending.  Graphs are immutable values; every algorithm in this package
returns new objects instead of mutating inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._propagate import neighbor_reduce

# Largest graph the explicit k-th power construction will accept.
DEFAULT_ORACLE_CAP = 100_000

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

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.size and row[i] == v

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
    keep = u != v
    u, v = u[keep], v[keep]
    if w is not None:
        w = np.asarray(w, dtype=np.float64)[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.ones(lo.size, dtype=bool)
    if lo.size:
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    elo, ehi = lo[first], hi[first]
    m = elo.size
    ew = None if w is None else np.add.reduceat(w[order], np.flatnonzero(first))

    deg = np.bincount(elo, minlength=n) + np.bincount(ehi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    src = np.concatenate([elo, ehi])
    dst = np.concatenate([ehi, elo])
    order2 = np.lexsort((dst, src))
    indices = dst[order2]
    weights = np.concatenate([ew, ew])[order2] if ew is not None else None
    return Graph(n=n, m=m, indptr=indptr, indices=indices, weights=weights)


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
    us, vs, ws = [], [], []
    any_weight = False
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = None
        elif len(edge) == 3:
            u, v, w = edge
            any_weight = True
        else:
            raise ValueError(f"edge must have 2 or 3 entries, got {edge!r}")
        us.append(u)
        vs.append(v)
        ws.append(w)
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    w = None
    if any_weight:
        w = np.array([1.0 if x is None else x for x in ws], dtype=np.float64)
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if u.size else 0
    return _build_arrays(u, v, w, n)


def data_lines(fh):
    """Yield (lineno, stripped line), skipping blanks and '#'/'%' comments."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and line[0] not in "#%":
            yield lineno, line


def _parse_edgelist(path: Path):
    us, vs, ws = [], [], []
    any_weight = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(path, lineno,
                                       f"expected 'u v [w]', got {line!r}")
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError:
                raise GraphFormatError(path, lineno,
                                       f"node ids must be integers: {line!r}") from None
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
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    ids = np.unique(np.concatenate([u, v])) if u.size else np.empty(0, np.int64)
    dense_u = np.searchsorted(ids, u)
    dense_v = np.searchsorted(ids, v)
    w = None
    if any_weight:
        w = np.array([1.0 if x is None else x for x in ws], dtype=np.float64)
    return _build_arrays(dense_u, dense_v, w, ids.size), ids


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
    u = np.array([k[0] - 1 for k in entries], dtype=np.int64)
    v = np.array([k[1] - 1 for k in entries], dtype=np.int64)
    w = None
    if not pattern:
        w = np.array([x for x in entries.values()], dtype=np.float64)
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
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        u, v, w = g.edge_list()
        if w is None:
            for a, b in zip(u.tolist(), v.tolist()):
                fh.write(f"{a} {b}\n")
        else:
            for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()):
                fh.write(f"{a} {b} {x!r}\n")


def _gather_neighbors(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `nodes` (duplicates preserved)."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    segment_starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(segment_starts, counts)
    return g.indices[base + within]


def bfs(g: Graph, source: int, max_depth: int | None = None) -> np.ndarray:
    """Level-synchronous breadth-first search from one source.

    Returns the int64 hop distances.  Unreachable nodes, and those
    beyond `max_depth` when given, hold the sentinel ``g.n``, which
    exceeds any valid hop count.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} outside 0..{g.n - 1}")
    sentinel = g.n
    dist = np.full(g.n, sentinel, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        neigh = _gather_neighbors(g, frontier)
        neigh = neigh[dist[neigh] == sentinel]
        frontier = np.unique(neigh)
        depth += 1
        dist[frontier] = depth
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
