"""Structural checks for a coarsening: distances, components, validity.

Every check collects violations as data instead of raising, so a report
can show all witnesses at once.  The guarantees checked here:

* every coarse edge joins centroids whose hop distance in the original
  graph lies in [k+1, 2k+1];
* for any two nodes u, v:  d_H(c(u), c(v)) <= d_G(u, v) and
  d_G(u, v) <= (2k+1) * d_H(c(u), c(v)) + 2k, where c maps a node to
  its centroid's coarse index;
* coarsening preserves the number of connected components, mapping each
  input component onto exactly one coarse component;
* a selection is k-independent (pairwise distance > k) and maximal
  (every node within k hops of the set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._propagate import neighbor_reduce
from .coarsen import CoarsenedGraph
from .graph import Graph, bfs, connected_components
from .kmis import KMisResult

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
    """Distance evidence: realized coarse-edge spans and sampled pairs."""

    per_coarse_edge: list[tuple[int, int, int]] = field(default_factory=list)
    per_pair_sample: list[tuple[int, int, int, int]] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    def edge_distance_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for _, _, d in self.per_coarse_edge:
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))


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


def check_edge_bounds(g: Graph, h: CoarsenedGraph, k: int) -> DistortionReport:
    """Check k+1 <= d_G(a, b) <= 2k+1 for every coarse edge (a, b).

    Runs one depth-capped search per coarse endpoint; distances beyond
    2k+2 hops show up as the unreachable sentinel ``g.n`` and are
    reported as violations.
    """
    report = DistortionReport()
    lower, upper = k + 1, 2 * k + 1
    hg = h.graph
    for ci in range(hg.n):
        targets = hg.neighbors(ci)
        targets = targets[targets > ci]
        if targets.size == 0:
            continue
        a = int(h.centroids[ci])
        dist = bfs(g, a, max_depth=upper + 1)
        for cj in targets.tolist():
            b = int(h.centroids[cj])
            d = int(dist[b])
            report.per_coarse_edge.append((a, b, d))
            if d == g.n or not lower <= d <= upper:
                observed = float("inf") if d == g.n else float(d)
                report.violations.append(Violation(
                    kind="edge_bound", nodes=(a, b),
                    observed=observed, bound=float(upper)))
    return report


def _coarse_of(h: CoarsenedGraph, assignment: np.ndarray,
               report) -> np.ndarray | None:
    """Coarse index of each node's centroid; None when the map is broken."""
    if assignment.size == 0:
        return np.empty(0, dtype=np.int64)
    nc = h.centroids.size
    if nc == 0:
        report.violations.append(Violation(
            kind="assignment_target", nodes=(), observed=float(assignment.size),
            bound=0.0))
        return None
    idx = np.clip(np.searchsorted(h.centroids, assignment), 0, nc - 1)
    bad = np.flatnonzero(h.centroids[idx] != assignment)
    for v in bad.tolist():
        report.violations.append(Violation(
            kind="assignment_target", nodes=(v, int(assignment[v])),
            observed=float(assignment[v]), bound=float("nan")))
    if bad.size:
        return None
    return idx


def check_distortion(g: Graph, h: CoarsenedGraph, k: int, pairs=None,
                     sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                     seed: int = 0, max_recorded: int = 1000
                     ) -> DistortionReport:
    """Check the two-sided distance bounds over node pairs.

    With `pairs` unset, graphs of at most EXHAUSTIVE_PAIR_LIMIT nodes
    are checked over all pairs; larger graphs use `sample_pairs` seeded
    uniform pairs, grouped by source so each source costs one search
    per graph.  Pairs in different components of g are skipped (both
    sides are infinite).  `per_pair_sample` records at most
    `max_recorded` checked pairs; violations are always recorded in
    full.
    """
    report = DistortionReport()
    n = g.n
    if n == 0:
        return report
    coarse_of = _coarse_of(h, h.provenance.assignment, report)
    if coarse_of is None:
        return report
    hg = h.graph

    # one work item per search source: (source node, target nodes)
    if pairs is not None:
        pair_arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        order = np.argsort(pair_arr[:, 0], kind="stable")
        pair_arr = pair_arr[order]
        sources, starts = np.unique(pair_arr[:, 0], return_index=True)
        bounds = np.append(starts, pair_arr.shape[0])
        work = [(int(sources[i]), pair_arr[bounds[i]:bounds[i + 1], 1])
                for i in range(sources.size)]
    elif n <= EXHAUSTIVE_PAIR_LIMIT:
        work = [(u, np.arange(u + 1, n)) for u in range(n)]
    else:
        rng = np.random.default_rng(seed)
        group = max(1, int(np.sqrt(sample_pairs)))
        n_sources = max(1, sample_pairs // group)
        drawn_sources = rng.integers(0, n, size=n_sources)
        drawn_targets = rng.integers(0, n, size=(n_sources, group))
        work = [(int(drawn_sources[i]), drawn_targets[i])
                for i in range(n_sources)]

    hdist_cache: dict[int, np.ndarray] = {}
    recorded = 0
    for u, targets in work:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            continue
        gdist = bfs(g, u)
        cu = int(coarse_of[u])
        if cu not in hdist_cache:
            hdist_cache[cu] = bfs(hg, cu)
        hdist = hdist_cache[cu]
        for v in targets.tolist():
            if v == u:
                continue
            dg = int(gdist[v])
            if dg == n:
                continue
            dh = int(hdist[coarse_of[v]])
            if recorded < max_recorded:
                report.per_pair_sample.append((u, v, dg, dh))
                recorded += 1
            if dh == hg.n:
                report.violations.append(Violation(
                    kind="distortion_lower", nodes=(u, v),
                    observed=float("inf"), bound=float(dg)))
                continue
            if dh > dg:
                report.violations.append(Violation(
                    kind="distortion_lower", nodes=(u, v),
                    observed=float(dh), bound=float(dg)))
            limit = (2 * k + 1) * dh + 2 * k
            if dg > limit:
                report.violations.append(Violation(
                    kind="distortion_upper", nodes=(u, v),
                    observed=float(dg), bound=float(limit)))
    return report


def check_components(g: Graph, h: CoarsenedGraph) -> ComponentReport:
    """Component count must be preserved, one coarse component per input one."""
    g_count, g_labels = connected_components(g)
    h_count, h_labels = connected_components(h.graph)
    report = ComponentReport(graph_components=g_count, coarse_components=h_count)
    if g_count != h_count:
        report.violations.append(Violation(
            kind="component_count", nodes=(),
            observed=float(h_count), bound=float(g_count)))
    coarse_of = _coarse_of(h, h.provenance.assignment, report)
    if coarse_of is None:
        return report
    if g.n:
        pairs = np.unique(np.stack([g_labels, h_labels[coarse_of]], axis=1), axis=0)
        comp_targets = np.bincount(pairs[:, 0], minlength=g_count)
        for comp in np.flatnonzero(comp_targets > 1).tolist():
            report.violations.append(Violation(
                kind="component_split", nodes=(comp,),
                observed=float(comp_targets[comp]), bound=1.0))
    return report


def check_kmis_validity(g: Graph, k: int, result: KMisResult) -> ValidityReport:
    """Check pairwise distance > k within the set and k-hop coverage of V.

    A k-step max-flood labels each node with the largest selected id
    within k hops (-1: uncovered).  Only selected nodes labelled above
    their own id get a depth-capped search, which names the pairs.
    """
    report = ValidityReport(selected_count=int(result.selected.size))
    in_set = result.as_mask(g.n)
    selected = np.flatnonzero(in_set)
    label = np.full(g.n, -1, dtype=np.int64)
    label[selected] = selected
    for _ in range(k):
        nxt = neighbor_reduce(g, label, "max", np.int64(-1))
        if np.array_equal(nxt, label):
            break
        label = nxt
    for s in selected[label[selected] > selected].tolist():
        dist = bfs(g, s, max_depth=k)
        for t in np.flatnonzero(in_set & (dist < g.n)).tolist():
            if t > s:
                report.violations.append(Violation(
                    kind="independence", nodes=(s, t),
                    observed=float(dist[t]), bound=float(k)))
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
        lines = ["[meta]", f"k,{self.k}",
                 f"status,{'pass' if self.passed else 'fail'}"]
        lines.append("[edge_bounds]")
        for a, b, d in self.edge_bounds.per_coarse_edge:
            lines.append(f"{a},{b},{d}")
        lines.append("[pairs]")
        for u, v, dg, dh in self.distortion.per_pair_sample:
            lines.append(f"{u},{v},{dg},{dh}")
        lines.append("[components]")
        lines.append(f"{self.components.graph_components},"
                     f"{self.components.coarse_components}")
        lines.append("[validity]")
        lines.append(f"selected,{self.validity.selected_count}")
        lines.append("[violations]")
        for section, violation in self.all_violations():
            nodes = ";".join(str(v) for v in violation.nodes)
            lines.append(f"{section},{violation.kind},{nodes},"
                         f"{violation.observed!r},{violation.bound!r}")
        return "\n".join(lines) + "\n"

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
        edge_bounds = DistortionReport()
        for line in sections.get("edge_bounds", []):
            a, b, d = (int(x) for x in line.split(","))
            edge_bounds.per_coarse_edge.append((a, b, d))
        distortion = DistortionReport()
        for line in sections.get("pairs", []):
            u, v, dg, dh = (int(x) for x in line.split(","))
            distortion.per_pair_sample.append((u, v, dg, dh))
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


def verify_reduction(g: Graph, h: CoarsenedGraph, k: int,
                     result: KMisResult | None = None, pairs=None,
                     sample_pairs: int = DEFAULT_SAMPLE_PAIRS,
                     seed: int = 0) -> VerificationReport:
    """Run all four checks against one coarsening.

    When `result` is omitted the selected set is taken to be the
    centroids of h.  k = 0 coarsenings check the degenerate bounds
    (every coarse edge spans exactly one hop).
    """
    if result is None:
        result = KMisResult(selected=h.centroids.copy(), rounds=0, k=k)
    return VerificationReport(
        k=k,
        edge_bounds=check_edge_bounds(g, h, k),
        distortion=check_distortion(g, h, k, pairs=pairs,
                                    sample_pairs=sample_pairs, seed=seed),
        components=check_components(g, h),
        validity=check_kmis_validity(g, k, result),
    )
