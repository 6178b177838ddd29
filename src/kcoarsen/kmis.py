"""Maximal k-independent set selection by parallel greedy rounds.

A set S is k-independent when every two members are more than k hops
apart, and maximal when every node lies within k hops of S.  Selection
emulates greedy MIS on the k-th graph power without materializing it:
each round floods the minimum rank of the still-active nodes through k
propagation steps, keeps the active nodes whose own rank survived, then
flags and retires everything within k hops of the new picks.  Retired
nodes stop contributing a rank but still relay labels and flags, so hop
distances are always those of the full graph.

A node's label is the minimum active rank within k hops, so retiring a
set R changes labels only on N_k(R), and those depend only on ranks in
N_2k(R).  A round after the first therefore recomputes labels on that
region alone, a linear-work round in the sense of Blelloch, Fineman &
Shun (SPAA 2012), and falls back to flooding every active rank when the
region would cost more than that flood (Ligra's switch: Shun & Blelloch,
PPoPP 2013).  Both forms give the same labels, so the same picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._propagate import flood, neighbor_reduce, next_to
from .graph import Graph
from .ranking import Ranking

__all__ = ["KMisResult", "k_mis"]


@dataclass(frozen=True)
class KMisResult:
    """Selected node set plus run metadata.

    `selected` holds sorted node ids; `rounds` counts outer
    select-and-retire iterations.
    """

    selected: np.ndarray
    rounds: int
    k: int

    def __post_init__(self):
        self.selected.setflags(write=False)


def k_mis(g: Graph, k: int, ranking: Ranking, workers: int = 1,
          trace: list | None = None) -> KMisResult:
    """Deterministic maximal k-independent set for a given ranking.

    The first round floods the active ranks k steps over the whole
    graph.  A later round changes labels only within k hops of the nodes
    the last round retired (R), so it grows the balls around R out to
    2k - 1 hops, recomputes labels by k `rows=` steps over N_{2k-1}(R)
    down to N_k(R), and tests only the active nodes of N_k(R) as picks;
    it floods all active ranks again when the balls would hold more edge
    slots than `_local_budget` allows.  Either way the round then floods
    the cover k steps from its picks and retires what it reaches.  A
    flood step is a full sweep, or about the edges next to the last
    step's changes once those are a small share of them, and a step that
    changes nothing ends its flood early, which is sound because
    min-label flooding is monotone.

    When `trace` is a list, each round appends a dict of its `active`,
    `chosen` and `retired` node counts and its `region`: the rows whose
    labels it recomputed, n on a full flood.  A round that picks no node,
    which only wrong labels can cause, raises RuntimeError.  `workers`
    is accepted and unused: every sweep runs on the calling thread.
    """
    if k < 1:
        raise ValueError("k_mis requires k >= 1")
    ranking.validate(g.n)
    n = g.n
    rank = ranking.rank
    sentinel = np.iinfo(np.int64).max
    # the rank of an active node, else the sentinel, so only an active node
    # can see its own rank as its label
    values = rank.copy()
    in_set = np.zeros(n, dtype=bool)
    hop = np.full(n, -1, dtype=np.int64)
    scratch = np.empty(n, dtype=np.int64)
    remaining = n
    total_slots = active_slots = int(g.indptr[-1])
    retired = None
    retired_slots = 0
    rounds = 0
    while remaining:
        rounds += 1
        region = None
        if retired is not None:
            region = _region(g, retired, retired_slots, 2 * k - 1, hop,
                             _local_budget(total_slots, active_slots))
        if region is None:
            for label in flood(g, values, "min", k, neighbor_reduce):
                pass
            picks = np.flatnonzero(label == rank)
        else:
            nodes, hops = region
            src = values
            for radius in range(2 * k - 1, k - 1, -1):
                rows = nodes[hops <= radius]
                got = neighbor_reduce(g, src, "min", rows=rows)
                src = scratch
                src[rows] = got
            picks = rows[got == rank[rows]]
        if not picks.size:
            raise RuntimeError(f"k_mis round {rounds} picked no node")
        in_set[picks] = True
        seeds = np.zeros(n, dtype=bool)
        seeds[picks] = True
        for covered in flood(g, seeds, "or", k, neighbor_reduce):
            pass
        retired = np.flatnonzero((values < sentinel) & covered)
        if trace is not None:
            trace.append({"active": remaining, "chosen": int(picks.size),
                          "retired": int(retired.size),
                          "region": n if region is None else int(nodes.size)})
        values[retired] = sentinel
        remaining -= retired.size
        retired_slots = int(g.degrees[retired].sum())
        active_slots -= retired_slots
    return KMisResult(selected=np.flatnonzero(in_set), rounds=rounds, k=k)


# A local round may grow its region to LOCAL_EDGE_SHARE of the edge slots,
# and never beyond the active nodes' slots, which a full flood starts from.
# With jagged full sweeps, on a 120x100 grid (kdeg, k=2) every share from
# 0.1 to 0.5 kept 99 of 111 rounds local; a flat 0.05 share kept 25 and ran
# 1.5-1.7x as long.  The active-slot bound keeps a random graph's late
# rounds, whose full floods are already sparse, full.
LOCAL_EDGE_SHARE = 0.25


def _local_budget(total_slots: int, active_slots: int) -> float:
    """Edge slots past which a round floods all active ranks instead."""
    return min(LOCAL_EDGE_SHARE * total_slots, active_slots)


def _region(g: Graph, retired: np.ndarray, slots: int, radius: int,
            hop: np.ndarray, budget: float):
    """Sorted ids within `radius` hops of `retired` and their hop counts.

    `slots` is the edge-slot count of `retired`; None once the region
    holds more than `budget` slots.  `hop` is scratch: -1 everywhere on
    entry, and again on return.
    """
    if slots > budget:
        return None
    shells = [retired]
    hop[retired] = 0
    while len(shells) <= radius and shells[-1].size:
        near = next_to(g, shells[-1])
        shell = near[hop[near] < 0]
        hop[shell] = len(shells)
        shells.append(shell)
        slots += g.degrees[shell].sum()
        if slots > budget:
            for shell in shells:
                hop[shell] = -1
            return None
    nodes = np.sort(np.concatenate(shells))
    hops = hop[nodes]
    hop[nodes] = -1
    return nodes, hops
