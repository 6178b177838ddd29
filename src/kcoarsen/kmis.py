"""Maximal k-independent set selection by parallel greedy rounds.

A set S is k-independent when every two members are more than k hops
apart, and maximal when every node lies within k hops of S.  Selection
emulates greedy MIS on the k-th graph power without materializing it:
each round labels every node with the minimum rank of the still-active
nodes within k hops, keeps the active nodes whose own rank survived, then
flags and retires everything within k hops of the new picks.  Retired
nodes stop contributing a rank but still relay labels and flags, so hop
distances are always those of the full graph.

The labels live across rounds as k+1 layers: layer 0 holds the active
ranks, and layer j is one min round over layer j-1, the minimum active
rank within j hops.  A row of layer j can change only on the closed
neighbourhood of the rows whose layer j-1 changed, so a round recomputes
those rows alone, layer by layer up from the ranks the last round
retired: a linear-work round in the sense of Blelloch, Fineman & Shun
(SPAA 2012).  Each layer update is one `_propagate.advance`, the
frontier step that `flood` repeats, so it is a full sweep instead when
the changed rows hold more than its share of the edge slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._propagate import advance, flood, neighbor_reduce
from .graph import Graph
from .ranking import as_ranking

__all__ = ["KMisResult", "k_mis"]


@dataclass(frozen=True)
class KMisResult:
    """Selected node set plus run metadata.

    `selected` holds sorted node ids; `rounds` counts outer
    select-and-retire iterations.
    """

    selected: np.ndarray
    rounds: int

    def __post_init__(self):
        self.selected.setflags(write=False)


def k_mis(g: Graph, k: int, rank, workers: int = 1,
          trace: list | None = None) -> KMisResult:
    """Deterministic maximal k-independent set for the ranking `rank`, which
    `as_ranking` checks.

    Each round brings the k label layers up to date, one min round per
    layer on the closed neighbourhood of the rows whose layer below
    changed (every row in the first round), and tests as picks only the
    rows whose top label changed: an unchanged label still names a
    smaller active rank.  It then floods the cover k steps from its picks
    and retires what it reaches.  When the active nodes hold fewer edge
    slots than the nodes just retired, the next round relabels from the
    active ranks instead: layers 1..k restart at the sentinel and the
    changed rows are the active nodes.  A round that picks no node,
    which only wrong labels can cause, raises RuntimeError.

    When `trace` is a list, each round appends a dict of its `active`,
    `chosen` and `retired` node counts and its `region`: the rows whose
    top label changed, the rows it tested for picks (n in the first
    round).  `workers` is accepted and unused: every sweep runs on the
    calling thread.
    """
    if k < 1:
        raise ValueError("k_mis requires k >= 1")
    rank = as_ranking(rank, g.n)
    n = g.n
    degrees = g.degrees
    active_slots = int(g.indptr[-1])
    sentinel = np.iinfo(np.int64).max
    # layers[0] holds the rank of an active node, else the sentinel, so only
    # an active node can see its own rank as its label
    layers = [rank.copy()] + [np.full(n, sentinel) for _ in range(k)]
    changed = np.arange(n)
    in_set = np.zeros(n, dtype=bool)
    remaining = n
    rounds = 0
    while remaining:
        rounds += 1
        for j in range(1, k + 1):
            layers[j], changed = advance(g, layers[j - 1], layers[j], changed,
                                         "min", neighbor_reduce)
        picks = changed[layers[k][changed] == rank[changed]]
        if not picks.size:
            raise RuntimeError(f"k_mis round {rounds} picked no node")
        in_set[picks] = True
        seeds = np.zeros(n, dtype=bool)
        seeds[picks] = True
        for covered in flood(g, seeds, "or", k, neighbor_reduce):
            pass
        active = layers[0]
        retired = np.flatnonzero((active < sentinel) & covered)
        if trace is not None:
            trace.append({"active": remaining, "chosen": int(picks.size),
                          "retired": int(retired.size),
                          "region": int(changed.size)})
        active[retired] = sentinel
        remaining -= retired.size
        retired_slots = int(degrees[retired].sum())
        active_slots -= retired_slots
        changed = retired
        # updating from the retired rows costs about their edge slots,
        # relabelling from the active ranks about the active nodes' slots
        if active_slots < retired_slots:
            for layer in layers[1:]:
                layer.fill(sentinel)
            changed = np.flatnonzero(active < sentinel)
    return KMisResult(selected=np.flatnonzero(in_set), rounds=rounds)
