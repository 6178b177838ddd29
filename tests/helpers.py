"""Independent pure-Python oracles used to cross-check the package.

Every oracle here but `csr_reference` is deliberately written with
dicts, sets, and deques instead of numpy (`fibers` only wraps its lists
as arrays) so that a bug in the array code cannot hide in the expected
values.  `traced_peak` is the memory tests' one tracemalloc wrapper.
"""

from collections import deque
from itertools import combinations
import random
import tracemalloc

import numpy as np


def adjacency(n, edges):
    """Build a dict-of-sets adjacency from an undirected edge list."""
    adj = {v: set() for v in range(n)}
    for e in edges:
        u, v = e[0], e[1]
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_dists(adj, source):
    """Hop distances from source; unreachable nodes are absent."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def ball(adj, source, k):
    """All nodes within k hops of source, source included."""
    return {v for v, d in bfs_dists(adj, source).items() if d <= k}


def power_edges(adj, k):
    """Edge set of the k-th graph power, as sorted (u, v) pairs with u < v."""
    out = set()
    for u in adj:
        for v in ball(adj, u, k):
            if v > u:
                out.add((u, v))
    return sorted(out)


def walk_vector(n, edges, x, k):
    """(A + I)^k x computed by dense repeated multiplication."""
    a = [[0] * n for _ in range(n)]
    for v in range(n):
        a[v][v] = 1
    adj = adjacency(n, edges)
    for u in adj:
        for v in adj[u]:
            a[u][v] = 1
    vec = list(x)
    for _ in range(k):
        vec = [sum(a[u][v] * vec[v] for v in range(n)) for u in range(n)]
    return vec


def sequential_kmis(adj, n, k, rank):
    """Greedy maximal k-independent set: repeatedly take the uncovered
    node of minimum rank and retire its k-hop ball."""
    order = sorted(range(n), key=lambda v: rank[v])
    covered = set()
    chosen = []
    for v in order:
        if v not in covered:
            chosen.append(v)
            covered |= ball(adj, v, k)
    return sorted(chosen)


def is_k_independent(adj, members, k):
    for u, v in combinations(sorted(members), 2):
        if v in ball(adj, u, k):
            return False
    return True


def edge_bounds_reference(adj, centroids, coarse_adj, k):
    """check_edge_bounds as one search per centroid: (records, violations).

    Coarse edges are taken from the smaller coarse index, larger index
    ascending; a distance beyond 2k+2 hops reads as the sentinel n.
    """
    n = len(adj)
    lower, upper = k + 1, 2 * k + 1
    records, violations = [], []
    for ci, a in enumerate(centroids):
        dist = bfs_dists(adj, a)
        for cj in sorted(c for c in coarse_adj[ci] if c > ci):
            b = centroids[cj]
            d = dist.get(b, n)
            d = d if d <= upper + 1 else n
            records.append((a, b, d))
            if d == n or not lower <= d <= upper:
                observed = float("inf") if d == n else float(d)
                violations.append(("edge_bound", (a, b), observed, float(upper)))
    return records, violations


def radius_reference(adj, assignment, k):
    """check_distortion's radius violations: u farther than k hops from
    its centroid assignment[u], in node order."""
    return [("radius", (u, c), float("inf"), float(k))
            for u, c in enumerate(assignment) if u not in ball(adj, c, k)]


def distortion_reference(adj, coarse_adj, coarse_of, k, work, max_recorded=1000):
    """check_distortion's pair loop over (source, targets) work items.

    Returns (recorded pairs, violations); one search per source on each
    graph, pairs in different components of the input skipped.
    """
    nh = len(coarse_adj)
    records, violations = [], []
    for u, targets in work:
        gdist = bfs_dists(adj, u)
        hdist = bfs_dists(coarse_adj, coarse_of[u])
        for v in targets:
            if v == u or v not in gdist:
                continue
            dg, dh = gdist[v], hdist.get(coarse_of[v], nh)
            if len(records) < max_recorded:
                records.append((u, v, dg, dh))
            if dh == nh:
                violations.append(("distortion_lower", (u, v), float("inf"), float(dg)))
                continue
            if dh > dg:
                violations.append(("distortion_lower", (u, v), float(dh), float(dg)))
            limit = (2 * k + 1) * dh + 2 * k
            if dg > limit:
                violations.append(("distortion_upper", (u, v), float(dg), float(limit)))
    return records, violations


def pair_work(n, pairs=None):
    """Work items of check_distortion: explicit pairs grouped by source in
    ascending order (targets in input order), else all pairs u < v."""
    if pairs is None:
        return [(u, list(range(u + 1, n))) for u in range(n)]
    groups = {}
    for u, v in pairs:
        groups.setdefault(u, []).append(v)
    return sorted(groups.items())


def splitmix64(seed, count):
    """The first `count` outputs of SplitMix64 (Steele, Lea & Flood, OOPSLA
    2014) seeded with `seed` mod 2**64: the state steps by the golden-ratio
    increment, each output is the mixed state."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def fibers(assignment):
    """Map each centroid to the sorted array of its member nodes."""
    groups = {}
    for v, centroid in enumerate(assignment.tolist()):
        groups.setdefault(centroid, []).append(v)
    return {c: np.array(members, dtype=np.int64)
            for c, members in sorted(groups.items())}


def covers_within_k(adj, n, members, k):
    covered = set()
    for v in members:
        covered |= ball(adj, v, k)
    return len(covered) == n


def brute_mwis(n, edges, x):
    """Exact maximum-weight independent set by subset enumeration.

    Only for tiny n; returns (best_weight, best_set).
    """
    adj = adjacency(n, edges)
    best_w, best_s = 0.0, frozenset()
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            s = set(combo)
            if all(not (adj[u] & s) for u in s):
                w = sum(x[v] for v in s)
                if w > best_w:
                    best_w, best_s = w, frozenset(s)
    return best_w, best_s


def random_edges(rng, n, p):
    """Erdos-Renyi edge list from a random.Random instance."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1)]


def star_edges(n):
    return [(0, i) for i in range(1, n)]


def grid_edges(rows, cols):
    """4-connected grid in row-major node order."""
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    return edges + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)]


def king_grid_edges(rows, cols):
    """8-connected grid in row-major node order."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((u, rr * cols + cc))
    return edges


def fold_reference(items, how):
    """{key: weight} of (key, weight) items by a dict walk: each key's
    weights fold left to right by `how` ("sum", "mean", "max" or "min")."""
    fold = {"max": max, "min": min}.get(how, float.__add__)  # mean sums first
    folded, counts = {}, {}
    for key, w in items:
        folded[key] = fold(folded[key], w) if key in folded else w
        counts[key] = counts.get(key, 0) + 1
    if how == "mean":
        return {key: total / counts[key] for key, total in folded.items()}
    return folded


def contraction_reference(edges, cluster_of, how):
    """{(a, b): weight} of the coarse edges, a < b, by a dict walk.

    `edges` are (u, v, w) triples in the order their weights fold;
    `cluster_of[v]` is v's coarse node.  Edges inside one cluster are
    dropped; the crossing edges of a pair fold left to right by `how`
    (see `fold_reference`).
    """
    pairs = ((tuple(sorted((cluster_of[u], cluster_of[v]))), w) for u, v, w in edges)
    return fold_reference(((pair, w) for pair, w in pairs if pair[0] != pair[1]), how)


def contraction_violations_reference(edges, cluster_of, centroids, coarse_edges):
    """check_edge_bounds' contraction violations, from contraction_reference.

    `edges` are the input's (u, v) pairs and `coarse_edges` the coarse
    (i, j) pairs, i < j.  First each cluster pair that input edges cross
    without a coarse edge, observed = its crossing edges, bound 0; then
    each coarse edge that no input edge crosses, observed 0, bound 1;
    each part in (i, j) order, named by the centroids' ids.
    """
    crossing = contraction_reference([(u, v, 1.0) for u, v in edges],
                                     cluster_of, "sum")
    coarse = set(coarse_edges)
    missing = [("missing_coarse_edge", (centroids[i], centroids[j]), count, 0.0)
               for (i, j), count in sorted(crossing.items()) if (i, j) not in coarse]
    extra = [("extra_coarse_edge", (centroids[i], centroids[j]), 0.0, 1.0)
             for i, j in sorted(coarse) if (i, j) not in crossing]
    return missing + extra


def validity_reference(n, edges, selected, k):
    """check_kmis_validity's violations: the independence pairs, then the
    uncovered nodes, from BFS."""
    adj = adjacency(n, edges)
    out = []
    for i, s in enumerate(selected):
        dist = bfs_dists(adj, s)
        for t in selected[i + 1:]:
            if dist.get(t, k + 1) <= k:
                out.append(("independence", (s, t), float(dist[t]), float(k)))
    covered = set()
    for s in selected:
        covered |= ball(adj, s, k)
    out += [("maximality", (v,), float("inf"), float(k))
            for v in range(n) if v not in covered]
    return out


def dyadic_weights(rng, n, denom_bits=4):
    """Strictly positive weights of the form m / 2^b, exact in binary floats."""
    return [rng.randrange(1, 64) / (1 << denom_bits) for _ in range(n)]


def make_rng(*seed):
    return random.Random("/".join(str(s) for s in seed))


def csr_reference(u, v, w, n):
    """(indptr, indices, weights) by the original two-lexsort assembly.

    Unlike the oracles above this one is numpy, on purpose: it pins
    `graph._build_arrays` bitwise, including the order in which parallel
    weights are summed (one stable lexsort of the canonical pairs, each
    run summed left to right, so in input order, then a second lexsort of
    the directed arcs).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
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
    ew = None if w is None else np.bincount(np.cumsum(first) - 1, weights=w[order])

    deg = np.bincount(elo, minlength=n) + np.bincount(ehi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    src = np.concatenate([elo, ehi])
    dst = np.concatenate([ehi, elo])
    order2 = np.lexsort((dst, src))
    weights = np.concatenate([ew, ew])[order2] if ew is not None else None
    return indptr, dst[order2], weights


def matrix_market_reference(path):
    """A Matrix Market file read by a per-entry loop with one dict entry
    per stored pair: None when the file is rejected, else (n, {(i, j):
    value}, weighted) over the pairs i < j of 0-based nodes, weighted
    False and every value None in a pattern file.  Blank lines and lines that start with '%' or '#' are comments.
    A file is rejected for a bad header or size line, an entry with the
    wrong field count, an index outside 1..n, a value that is not finite
    and positive, two values stored for one pair (the diagonal too), more
    or fewer entries than nnz, a byte that is not UTF-8, or an n whose
    edge keys n * i + j would overflow int64.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        return None
    if not lines or not lines[0].lower().startswith("%%matrixmarket"):
        return None
    header = [tok.lower() for tok in lines[0].split()]
    if (len(header) != 5 or header[1:3] != ["matrix", "coordinate"]
            or header[3] not in ("real", "integer", "pattern")
            or header[4] not in ("symmetric", "general")):
        return None
    pattern = header[3] == "pattern"
    size, stored, seen = None, {}, 0
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line[0] in "%#":
            continue
        parts = line.split()
        try:
            if size is None:
                size = [int(p) for p in parts]
                if len(size) != 3 or size[0] != size[1] or min(size) < 0:
                    return None
                continue
            if len(parts) != (2 if pattern else 3):
                return None
            i, j = int(parts[0]), int(parts[1])
            value = None if pattern else float(parts[2])
        except ValueError:
            return None
        if not (1 <= i <= size[0] and 1 <= j <= size[0]):
            return None
        if value is not None and not 0 < value < float("inf"):
            return None
        seen += 1
        pair = (min(i, j) - 1, max(i, j) - 1)
        if seen > size[2] or stored.setdefault(pair, value) != value:
            return None
    if size is None or seen < size[2] or size[0] > 3_037_000_499:
        return None
    return (size[0], {pair: value for pair, value in stored.items() if pair[0] < pair[1]},
            not pattern)

def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
