"""Structural checks for a coarsening: distances, components, validity.

Every check collects violations as data instead of raising, so a report
can show all witnesses at once.  The guarantees checked here, each with
the check and violation kinds that enforce it; c maps a node to its
centroid's coarse index:

* (C) the coarse graph is the contraction of the input: two clusters
  share a coarse edge exactly when an input edge crosses between them,
  and a coarse weight is the `--edge-agg` fold of the crossing edges'
  weights (`check_edge_bounds`: `missing_coarse_edge`,
  `extra_coarse_edge`, `coarse_weight`);
* (R) every node maps to a centroid and lies within k hops of it
  (`check_distortion`: `assignment_target`, `radius`);
* (V) a selection is k-independent (pairwise distance > k) and maximal
  (every node within k hops of the set), and equals the centroids
  (`check_kmis_validity`: `independence`, `maximality`;
  `verify_reduction`: `selection`);
* every coarse edge joins centroids whose hop distance in the original
  graph lies in [k+1, 2k+1]: at most 2k+1 by C and R, at least k+1 by V
  (evidence: the span search, `edge_bound`);
* for any two nodes u, v:  d_H(c(u), c(v)) <= d_G(u, v), by C, and
  d_G(u, v) <= (2k+1) * d_H(c(u), c(v)) + 2k, by R and the spans
  (evidence: the pair searches, `distortion_lower`, `distortion_upper`);
* coarsening preserves the number of connected components, mapping each
  input component onto exactly one coarse component, by R and C
  (`check_components`: `component_count`, `component_split`).

C, R and V are a certificate in the sense of certifying algorithms
(McConnell, Mehlhorn, Naeher & Schweitzer, Comput. Sci. Rev. 2011):
they imply the other guarantees.  So each check checks one certificate
fact, or the components, and only `verify_reduction(evidence=True)`
adds the span search and the pair searches that re-measure the implied
bounds.  The checks of C and R keep the names of the report sections
they fill because the per-layer traces time them by name.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._propagate import concat_ranges, flood, neighbor_reduce, sorted_unique
from .coarsen import EDGE_AGGREGATIONS, CoarsenedGraph, _crossing_keys
from .graph import Graph, _fold, bfs, connected_components, table_text

__all__ = [
    "ComponentReport",
    "DistortionReport",
    "ValidityReport",
    "VerificationReport",
    "Violation",
    "check_components",
    "check_distortion",
    "check_edge_bounds",
    "check_kmis_validity",
    "verify_reduction",
]

EXHAUSTIVE_PAIR_LIMIT = 500
DEFAULT_SAMPLE_PAIRS = 10_000
# Checked pairs a distortion report keeps as its sample.
MAX_RECORDED_PAIRS = 1000
# SplitMix64's increment and output mix (Steele, Lea & Flood, OOPSLA 2014)
_SPLITMIX = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                      0x94D049BB133111EB], dtype=np.uint64)


@dataclass(frozen=True)
class Violation:
    """One broken guarantee: the nodes involved, observed value, bound."""

    kind: str
    nodes: tuple[int, ...]
    observed: float
    bound: float


class _Checked:
    """A check's outcome; it passes when it recorded no violation."""

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class DistortionReport(_Checked):
    """The edge-bounds or distortion section: violations and, from an
    evidence run, the measured spans or pairs.

    `per_coarse_edge` holds int64 rows (a, b, d_G(a, b)) and
    `per_pair_sample` int64 rows (u, v, d_G(u, v), d_H(c(u), c(v))).
    """

    per_coarse_edge: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    per_pair_sample: np.ndarray = field(
        default_factory=lambda: np.empty((0, 4), dtype=np.int64))
    violations: list[Violation] = field(default_factory=list)


@dataclass
class ComponentReport(_Checked):
    """Component counts on both sides plus any mapping violations."""

    graph_components: int
    coarse_components: int
    violations: list[Violation] = field(default_factory=list)


@dataclass
class ValidityReport(_Checked):
    """Independence and coverage witnesses for a selected set."""

    selected_count: int
    violations: list[Violation] = field(default_factory=list)


def check_edge_bounds(g: Graph, h: CoarsenedGraph,
                      edge_agg: str = "sum") -> DistortionReport:
    """Check (C): the coarse edges and their weights are the contraction
    of g.

    Each input edge between two clusters must find their coarse edge (a
    `missing_coarse_edge` per cluster pair that does not, its crossing
    input edges observed), and each coarse edge must be crossed by an
    input edge (an `extra_coarse_edge` otherwise), both in key order.
    When h has weights, each crossed coarse edge's weight must equal the
    `_fold` of its crossing edges' weights by `edge_agg`, as `reduce`
    folds them (a `coarse_weight` otherwise).  A broken assignment skips
    the check: the distortion check reports it.
    """
    if edge_agg not in EDGE_AGGREGATIONS:
        raise ValueError(f"unknown edge aggregation {edge_agg!r}")
    report = DistortionReport()
    coarse_of = h._cluster_of
    if (coarse_of < 0).any():
        return report
    nc = h.centroids.size
    crossing, w = _crossing_keys(g, coarse_of, nc)
    at = np.searchsorted(h.keys, crossing)
    found = at < h.keys.size
    found[found] = h.keys[at[found]] == crossing[found]
    missing, count = _fold(crossing[~found], None, "sum")  # run lengths
    crossed = np.zeros(h.keys.size, dtype=bool)
    crossed[at[found]] = True
    ci, cj = np.divmod(missing, nc)
    for a, b, seen in zip(h.centroids[ci].tolist(), h.centroids[cj].tolist(),
                          count.tolist()):
        report.violations.append(Violation(
            kind="missing_coarse_edge", nodes=(a, b), observed=float(seen),
            bound=0.0))
    ci, cj = np.divmod(h.keys[~crossed], nc)
    for a, b in zip(h.centroids[ci].tolist(), h.centroids[cj].tolist()):
        report.violations.append(Violation(
            kind="extra_coarse_edge", nodes=(a, b), observed=0.0, bound=1.0))
    if h.weights is None:
        return report
    del at, found
    keys, folded = _fold(crossing, w, edge_agg, overflow="edge_agg 'sum' gives "
                         "a coarse edge weight beyond float64's range")
    crossed = np.flatnonzero(crossed)
    want = folded[np.searchsorted(keys, h.keys[crossed])]
    wrong = h.weights[crossed] != want
    ci, cj = np.divmod(h.keys[crossed[wrong]], nc)
    for a, b, seen, fold in zip(h.centroids[ci].tolist(), h.centroids[cj].tolist(),
                                h.weights[crossed[wrong]].tolist(), want[wrong].tolist()):
        report.violations.append(Violation(
            kind="coarse_weight", nodes=(a, b), observed=seen, bound=fold))
    return report


def _edge_spans(g: Graph, h: CoarsenedGraph, k: int) -> DistortionReport:
    """The span search: k+1 <= d_G(a, b) <= 2k+1 for every coarse edge
    (a, b), by one depth-capped pair search over every coarse edge,
    smaller coarse index first in key order, recorded in
    `per_coarse_edge`; distances beyond 2k+2 hops read as the
    unreachable sentinel ``g.n`` and are reported as `edge_bound`s."""
    lower, upper = k + 1, 2 * k + 1
    ci, cj, _ = h.edge_list()
    a, b = h.centroids[ci], h.centroids[cj]
    d = bfs(g, a, b, max_depth=upper + 1)
    report = DistortionReport(per_coarse_edge=np.stack([a, b, d], axis=1))
    for i in np.flatnonzero((d == g.n) | (d < lower) | (d > upper)).tolist():
        observed = float("inf") if d[i] == g.n else float(d[i])
        report.violations.append(Violation(
            kind="edge_bound", nodes=(int(a[i]), int(b[i])),
            observed=observed, bound=float(upper)))
    return report


def _draws(seed: int, count: int, n: int) -> np.ndarray:
    """Outputs 0..count-1 of the SplitMix64 stream seeded with `seed`, mod n.

    Output i is mix(seed + (i+1) * 0x9E3779B97F4A7C15); the mod-n bias is
    at most n / 2**64.  Arrays only: uint64 array arithmetic wraps silently.
    """
    step, m1, m2 = _SPLITMIX
    # (i+1) * step by a running sum: np.arange silently returns an empty
    # array for lengths near 2**63, where np.full raises
    z = np.full(count, step)
    np.cumsum(z, out=z)
    z += np.uint64(operator.index(seed) % 2**64)  # np.int64 % 2**64 overflows
    z ^= z >> np.uint64(30)
    z *= m1
    z ^= z >> np.uint64(27)
    z *= m2
    z ^= z >> np.uint64(31)
    z %= np.uint64(n)
    return z.astype(np.int64)


def check_distortion(g: Graph, h: CoarsenedGraph, k: int) -> DistortionReport:
    """Check (R): every node maps to a centroid within k hops of it.

    A broken assignment ends the check at its `assignment_target`s.
    Otherwise one depth-k pair search from each node's centroid to the
    node checks the radius, d_G(u, c(u)) <= k, for every node.
    """
    report = DistortionReport()
    assignment = h.assignment
    bad = np.flatnonzero(h._cluster_of < 0)
    if bad.size and not h.centroids.size:  # no centroid at all: one violation
        report.violations.append(Violation(
            kind="assignment_target", nodes=(), observed=float(bad.size), bound=0.0))
        return report
    for v in bad.tolist():
        report.violations.append(Violation(
            kind="assignment_target", nodes=(v, int(assignment[v])),
            observed=float(assignment[v]), bound=float("nan")))
    if bad.size:
        return report
    radius = bfs(g, assignment, np.arange(g.n), max_depth=k)
    for u in np.flatnonzero(radius == g.n).tolist():
        report.violations.append(Violation(
            kind="radius", nodes=(u, int(assignment[u])),
            observed=float("inf"), bound=float(k)))
    return report


def _pair_sample(n: int, pairs, sample_pairs: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of the pair searches.

    With `pairs` unset, graphs of at most EXHAUSTIVE_PAIR_LIMIT nodes
    take all pairs; larger graphs sample about `sample_pairs` pairs:
    floor(sqrt(sample_pairs)) targets for each of sample_pairs // that
    many sources.  The draws come from the SplitMix64 stream of `seed`
    (taken mod 2**64): the sources first, then the targets source by
    source, each reduced mod n.  Explicit pairs are taken grouped by
    source; a row that is not a (u, v) pair or a pair with a node
    outside 0..n-1 raises ValueError.
    """
    if pairs is not None:
        pair_arr = np.asarray(list(pairs), dtype=np.int64)
        if pair_arr.shape[1:] != (2,) and pair_arr.shape != (0,):
            raise ValueError(f"pairs must be (u, v) rows, got shape {pair_arr.shape}")
        pair_arr = pair_arr.reshape(-1, 2)
        for u, v in pair_arr[((pair_arr < 0) | (pair_arr >= n)).any(axis=1)]:
            raise ValueError(f"pair ({u}, {v}) has a node outside 0..{n - 1}")
        src, dst = pair_arr[np.argsort(pair_arr[:, 0], kind="stable")].T
        return src, dst
    if n <= EXHAUSTIVE_PAIR_LIMIT:
        return np.triu_indices(n, 1)
    group = max(1, math.isqrt(sample_pairs))
    n_sources = max(1, sample_pairs // group)
    draws = _draws(seed, n_sources * (group + 1), n)
    return np.repeat(draws[:n_sources], group), draws[n_sources:]


def _check_pairs(g: Graph, hg: Graph, k: int, coarse_of: np.ndarray,
                 src: np.ndarray, dst: np.ndarray) -> DistortionReport:
    """The pair searches: the distance bounds for the pairs (src[i],
    dst[i]), by one pair search on g and one on the coarse graph hg.

    Pairs in different components of g are skipped (both sides are
    infinite).  `per_pair_sample` records at most MAX_RECORDED_PAIRS
    checked pairs; violations are always recorded in full.
    """
    n = g.n
    src, dst = src[src != dst], dst[src != dst]
    dg = bfs(g, src, dst)
    src, dst, dg = src[dg < n], dst[dg < n], dg[dg < n]
    dh = bfs(hg, coarse_of[src], coarse_of[dst])

    report = DistortionReport(per_pair_sample=np.stack(
        [x[:MAX_RECORDED_PAIRS] for x in (src, dst, dg, dh)], axis=1))
    # an unreachable centroid pair breaks the lower bound at any distance
    reachable = dh < hg.n
    observed_h = np.where(reachable, dh, np.inf)
    limit = (2 * k + 1) * dh + 2 * k
    low, high = observed_h > dg, reachable & (dg > limit)
    for i in np.flatnonzero(low | high).tolist():
        u, v = int(src[i]), int(dst[i])
        if low[i]:
            report.violations.append(Violation(
                kind="distortion_lower", nodes=(u, v),
                observed=float(observed_h[i]), bound=float(dg[i])))
        if high[i]:
            report.violations.append(Violation(
                kind="distortion_upper", nodes=(u, v),
                observed=float(dg[i]), bound=float(limit[i])))
    return report


def check_components(g: Graph, h: CoarsenedGraph) -> ComponentReport:
    """Component count must be preserved, one coarse component per input
    one; a broken assignment skips the latter, unrecorded."""
    g_count, g_labels = connected_components(g)
    h_count, h_labels = connected_components(h.graph)
    report = ComponentReport(graph_components=g_count, coarse_components=h_count)
    if g_count != h_count:
        report.violations.append(Violation(
            kind="component_count", nodes=(),
            observed=float(h_count), bound=float(g_count)))
    coarse_of = h._cluster_of
    if (coarse_of < 0).any():  # the distortion check reports a broken map
        return report
    if g.n:
        # one key per (input component, coarse component) pair
        pairs = sorted_unique(g_labels * h_count + h_labels[coarse_of])
        comp_targets = np.bincount(pairs // h_count, minlength=g_count)
        for comp in np.flatnonzero(comp_targets > 1).tolist():
            report.violations.append(Violation(
                kind="component_split", nodes=(comp,),
                observed=float(comp_targets[comp]), bound=1.0))
    return report


def check_kmis_validity(g: Graph, k: int, selected) -> ValidityReport:
    """Check distance > k between the ids `selected` and k-hop coverage of V.

    A k-step max-flood labels each node with the largest selected id
    within k hops (below 0: uncovered).  Only selected nodes s labelled above
    their own id are suspects; one depth-capped pair search from them to
    the selected ids in s+1..label[s] names the pairs.
    """
    report = ValidityReport(selected_count=int(np.size(selected)))
    mask = np.zeros(g.n, dtype=bool)
    mask[selected] = True
    selected = np.flatnonzero(mask)
    seeds = np.where(mask, np.arange(g.n), np.iinfo(np.int64).min)
    for label in flood(g, seeds, "max", k, neighbor_reduce):
        pass
    suspects = np.flatnonzero(label[selected] > selected)  # into selected
    if suspects.size:
        # every selected t > s within k hops of s has t <= label[s]
        s = selected[suspects]
        count = np.searchsorted(selected, label[s], side="right") - suspects - 1
        src = np.repeat(s, count)
        dst = selected[concat_ranges(suspects + 1, count)]
        dist = bfs(g, src, dst, max_depth=k)
        for i in np.flatnonzero(dist < g.n).tolist():
            report.violations.append(Violation(
                kind="independence", nodes=(int(src[i]), int(dst[i])),
                observed=float(dist[i]), bound=float(k)))
    for v in np.flatnonzero(label < 0).tolist():
        report.violations.append(Violation(
            kind="maximality", nodes=(v,),
            observed=float("inf"), bound=float(k)))
    return report


@dataclass
class VerificationReport:
    """All four checks bundled, with lossless text round-tripping."""

    k: int
    edge_bounds: DistortionReport
    distortion: DistortionReport
    components: ComponentReport
    validity: ValidityReport

    @property
    def passed(self) -> bool:
        return (self.edge_bounds.passed and self.distortion.passed
                and self.components.passed and self.validity.passed)

    def all_violations(self) -> list[tuple[str, Violation]]:
        out: list[tuple[str, Violation]] = []
        for section in ("edge_bounds", "distortion", "components", "validity"):
            for violation in getattr(self, section).violations:
                out.append((section, violation))
        return out

    def to_text(self) -> str:
        parts = ["[meta]\n", f"k,{self.k}\n",
                 f"status,{'pass' if self.passed else 'fail'}\n",
                 "[edge_bounds]\n", _csv(self.edge_bounds.per_coarse_edge),
                 "[pairs]\n", _csv(self.distortion.per_pair_sample),
                 "[components]\n",
                 f"{self.components.graph_components},"
                 f"{self.components.coarse_components}\n",
                 "[validity]\n",
                 f"selected,{self.validity.selected_count}\n",
                 "[violations]\n"]
        for section, violation in self.all_violations():
            nodes = ";".join(str(v) for v in violation.nodes)
            parts.append(f"{section},{violation.kind},{nodes},"
                         f"{violation.observed!r},{violation.bound!r}\n")
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "VerificationReport":
        sections: dict[str, list[str]] = {}
        current = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections.setdefault(current, [])
                continue
            if current is None:
                raise ValueError(f"report line outside any section: {line!r}")
            sections[current].append(line)
        meta = dict(line.split(",", 1) for line in sections.get("meta", []))
        k = int(meta["k"])
        edge_bounds = DistortionReport(
            per_coarse_edge=_int_rows(sections.get("edge_bounds", []), 3))
        distortion = DistortionReport(
            per_pair_sample=_int_rows(sections.get("pairs", []), 4))
        comp_lines = sections.get("components", ["0,0"])
        g_count, h_count = (int(x) for x in comp_lines[0].split(","))
        components = ComponentReport(graph_components=g_count,
                                     coarse_components=h_count)
        validity_meta = dict(line.split(",", 1)
                             for line in sections.get("validity", []))
        validity = ValidityReport(selected_count=int(validity_meta.get("selected", 0)))
        report = cls(k=k, edge_bounds=edge_bounds, distortion=distortion,
                     components=components, validity=validity)
        targets = {"edge_bounds": edge_bounds, "distortion": distortion,
                   "components": components, "validity": validity}
        for line in sections.get("violations", []):
            section, kind, nodes_txt, observed, bound = line.split(",", 4)
            nodes = tuple(int(x) for x in nodes_txt.split(";")) if nodes_txt else ()
            targets[section].violations.append(Violation(
                kind=kind, nodes=nodes, observed=float(observed),
                bound=float(bound)))
        return report


def _csv(rows: np.ndarray) -> str:
    """Integer rows as comma-separated lines."""
    return b"".join(table_text(rows.T, ",")).decode()


def _int_rows(lines: list[str], width: int) -> np.ndarray:
    """Comma-separated integer lines as an int64 array of `width` columns."""
    return np.array([line.split(",") for line in lines],
                    dtype=np.int64).reshape(len(lines), width)


def verify_reduction(g: Graph, h: CoarsenedGraph, k: int, selected=None,
                     sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                     seed: int = 0, edge_agg: str = "sum", *,
                     evidence: bool = False) -> VerificationReport:
    """Run all four checks against one coarsening.

    By default they check the certificate (contraction, radius and
    validity) and the components, which imply the distance bounds.  With
    `evidence` the span search and, on an intact cluster map, the pair
    searches run first, filling `per_coarse_edge` and `per_pair_sample`
    (`sample_pairs` and `seed` shape the pair sample, see `_pair_sample`)
    and leading the edge-bounds and distortion sections with their
    violations.  Raises ValueError for `sample_pairs` below 1 or a
    negative `seed`.
    `selected`, the node ids of a selection, defaults to the centroids of
    h; given ids must equal them (a `selection` violation per node in one
    set only, observed 1.0 when selected, bound 1.0 when a centroid).
    k = 0 coarsenings check the degenerate bounds (every coarse edge spans
    exactly one hop).
    """
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be at least 1, got {sample_pairs}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if selected is None:
        selected = h.centroids
    spans, pairs = DistortionReport(), DistortionReport()
    if evidence:
        spans = _edge_spans(g, h, k)
        coarse_of = h._cluster_of
        if not (coarse_of < 0).any():  # check_distortion reports a broken map
            pairs = _check_pairs(g, h.graph, k, coarse_of,
                                 *_pair_sample(g.n, None, sample_pairs, seed))
    spans.violations += check_edge_bounds(g, h, edge_agg).violations
    pairs.violations += check_distortion(g, h, k).violations
    report = VerificationReport(
        k=k, edge_bounds=spans, distortion=pairs,
        components=check_components(g, h),
        validity=check_kmis_validity(g, k, selected),
    )
    if not np.array_equal(selected, h.centroids):
        odd = np.setxor1d(selected, h.centroids)
        for v, picked in zip(odd.tolist(), np.isin(odd, selected).tolist()):
            report.validity.violations.append(Violation(
                kind="selection", nodes=(v,), observed=float(picked),
                bound=float(not picked)))
    return report
