"""Quality oracles: greedy and exact maximum-weight independent sets.

These run against the explicit k-th power of a graph, so a maximal
k-independent set of g and an independent set of power(g, k) compete on
the same instance.  The sequential greedy baseline re-scores surviving
nodes after every pick; the exact solver is a small branch-and-bound
for instances of at most EXACT_MWIS_CAP nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .graph import DEFAULT_ORACLE_CAP, Graph, as_node_weights, power
from .kmis import k_mis
from .ranking import resolve_ranking, walk_counts

__all__ = [
    "EXACT_MWIS_CAP",
    "OracleReport",
    "RULES",
    "TrialResult",
    "compare",
    "exact_mwis",
    "sequential_greedy_mwis",
]

EXACT_MWIS_CAP = 24
RULES = ("degree_rule", "weight_rule")

# Relative slack for floating-point comparisons of mathematically exact
# inequalities between sums of positive doubles.
_REL_SLACK = 1e-9


def sequential_greedy_mwis(g: Graph, weights, rule: str = "degree_rule"
                           ) -> np.ndarray:
    """Greedy maximum-weight independent set with per-step re-scoring.

    Parameters
    ----------
    g : Graph
        The instance; for k-independence baselines pass power(g, k).
    weights : array-like
        Strictly positive node weights x.
    rule : str
        'degree_rule' picks argmax x_v / (deg(v) + 1); 'weight_rule'
        picks argmax x_v / sum of x over the closed neighborhood.  Both
        re-evaluate on the subgraph of surviving nodes after each pick,
        with node id breaking score ties.

    Returns
    -------
    np.ndarray
        Sorted ids of the chosen independent set.
    """
    if rule not in RULES:
        raise ValueError(f"unknown greedy rule {rule!r}")
    x = as_node_weights(weights, g.n)
    n = g.n
    adj = [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(n)]
    xs = x.tolist()
    alive = [True] * n
    deg = g.degrees.tolist()
    wsum = [xs[v] + sum(xs[u] for u in adj[v]) for v in range(n)]
    version = [0] * n

    def score(v: int) -> float:
        if rule == "degree_rule":
            return xs[v] / (deg[v] + 1)
        return xs[v] / wsum[v]

    heap = [(-score(v), v, 0) for v in range(n)]
    heapq.heapify(heap)
    picked: list[int] = []
    while heap:
        neg, v, ver = heapq.heappop(heap)
        if not alive[v] or ver != version[v]:
            continue
        picked.append(v)
        doomed = [v] + [u for u in adj[v] if alive[u]]
        for z in doomed:
            alive[z] = False
        for z in doomed:
            for u in adj[z]:
                if alive[u]:
                    deg[u] -= 1
                    wsum[u] -= xs[z]
                    version[u] += 1
                    heapq.heappush(heap, (-score(u), u, version[u]))
    return np.array(sorted(picked), dtype=np.int64)


def exact_mwis(g: Graph, weights) -> tuple[np.ndarray, float]:
    """Exact maximum-weight independent set by branch and bound.

    Exhaustive over independent subsets with a remaining-weight bound;
    refuses instances with more than EXACT_MWIS_CAP nodes.  Returns the
    first optimum found under a deterministic branching order, plus its
    weight.
    """
    n = g.n
    if n > EXACT_MWIS_CAP:
        raise ValueError(f"exact_mwis handles at most {EXACT_MWIS_CAP} nodes, got {n}")
    x = as_node_weights(weights, g.n).tolist()
    if n == 0:
        return np.empty(0, dtype=np.int64), 0.0
    closed = []
    for v in range(n):
        mask = 1 << v
        for u in g.neighbors(v).tolist():
            mask |= 1 << u
        closed.append(mask)
    # branch on heavy nodes first; ties by id keep the search deterministic
    branch_order = sorted(range(n), key=lambda v: (-x[v], v))

    best_weight = 0.0
    best_set = 0

    def weight_of(mask: int) -> float:
        total = 0.0
        while mask:
            bit = mask & -mask
            total += x[bit.bit_length() - 1]
            mask ^= bit
        return total

    def descend(avail: int, current: float, chosen: int, remaining: float):
        nonlocal best_weight, best_set
        if current > best_weight:
            best_weight = current
            best_set = chosen
        if not avail or current + remaining <= best_weight:
            return
        for v in branch_order:
            bit = 1 << v
            if avail & bit:
                dropped = avail & closed[v]
                descend(avail & ~closed[v], current + x[v], chosen | bit,
                        remaining - weight_of(dropped))
                descend(avail & ~bit, current, chosen, remaining - x[v])
                return

    descend((1 << n) - 1, 0.0, 0, sum(x))
    members = [v for v in range(n) if best_set >> v & 1]
    return np.array(members, dtype=np.int64), best_weight


@dataclass(frozen=True)
class TrialResult:
    """Per-trial weights and bound values from one comparison run."""

    trial: int
    greedy_weight: float
    ours_weight: float
    bound_rhs: float
    exact_alpha: float | None
    ratio_rhs: float | None


@dataclass
class OracleReport:
    """Aggregate of a greedy-versus-ranked comparison.

    Weights are means over trials; `exact_alpha` appears only for
    instances small enough for the exact solver.  `bound_violations`
    stays empty as long as every trial respects the ranked-selection
    weight guarantees.
    """

    k: int
    rule: str
    trials: int
    seed: int
    delta_k: float
    greedy_weight: float
    ours_weight: float
    exact_alpha: float | None
    rows: list[TrialResult] = field(default_factory=list)
    bound_violations: list[str] = field(default_factory=list)


def compare(g: Graph, k: int, rule: str, trials: int = 10,
            weight_low: float = 1.0, weight_high: float = 100.0, seed: int = 0,
            oracle_cap: int = DEFAULT_ORACLE_CAP, workers: int = 1) -> OracleReport:
    """Compare ranked k-independent selection against sequential greedy.

    Every trial draws fresh uniform node weights in
    [weight_low, weight_high) from a seed derived as (seed, trial), runs
    the greedy baseline on the explicit power graph and the ranked
    selection on g itself, and records both total weights.  The report
    also checks the per-trial guarantees: the selected weight is at
    least the sum of ranking scores, and at least alpha / delta_k when
    the exact optimum alpha is available, on instances that fit the
    exact solver.

    Raises ValueError (propagated from power) when g exceeds
    `oracle_cap`.
    """
    if rule not in RULES:
        raise ValueError(f"unknown greedy rule {rule!r}")
    if trials < 1:
        raise ValueError("compare requires at least one trial")
    gk = power(g, k, oracle_cap)
    walk_ones = walk_counts(g, np.ones(g.n), k, workers)
    delta_k = float(walk_ones.max()) if g.n else 0.0
    run_exact = g.n <= EXACT_MWIS_CAP

    rows: list[TrialResult] = []
    violations: list[str] = []
    for trial in range(trials):
        x = np.random.default_rng([seed, trial]).uniform(weight_low, weight_high, g.n)
        greedy = sequential_greedy_mwis(gk, x, rule)
        greedy_weight = float(x[greedy].sum())
        spec = {"degree_rule": "kdeg", "weight_rule": "kweight"}[rule]
        ranking = resolve_ranking(g, spec, k=k, weights=x, workers=workers)
        if rule == "degree_rule":
            bound_rhs = float((x / walk_ones).sum())
        else:
            walk_x = walk_counts(g, x, k, workers)
            bound_rhs = float((x * x / walk_x).sum())
        ours = k_mis(g, k, ranking, workers=workers)
        ours_weight = float(x[ours.selected].sum())

        slack = _REL_SLACK * max(1.0, abs(bound_rhs))
        if ours_weight + slack < bound_rhs:
            violations.append(
                f"trial {trial}: selected weight {ours_weight!r} below "
                f"score-sum bound {bound_rhs!r}")
        alpha = None
        ratio_rhs = None
        if run_exact:
            _, alpha = exact_mwis(gk, x)
            ratio_rhs = alpha / delta_k if delta_k else 0.0
            if ours_weight + _REL_SLACK * max(1.0, alpha) < ratio_rhs:
                violations.append(
                    f"trial {trial}: selected weight {ours_weight!r} below "
                    f"alpha/delta_k {ratio_rhs!r}")
            if alpha + _REL_SLACK * max(1.0, alpha) < max(greedy_weight, ours_weight):
                violations.append(
                    f"trial {trial}: exact optimum {alpha!r} below a "
                    f"heuristic weight")
        rows.append(TrialResult(trial=trial, greedy_weight=greedy_weight,
                                ours_weight=ours_weight, bound_rhs=bound_rhs,
                                exact_alpha=alpha, ratio_rhs=ratio_rhs))

    alphas = [r.exact_alpha for r in rows if r.exact_alpha is not None]
    return OracleReport(
        k=k, rule=rule, trials=trials, seed=seed, delta_k=delta_k,
        greedy_weight=float(np.mean([r.greedy_weight for r in rows])),
        ours_weight=float(np.mean([r.ours_weight for r in rows])),
        exact_alpha=float(np.mean(alphas)) if alphas else None,
        rows=rows, bound_violations=violations)
