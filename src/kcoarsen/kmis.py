"""Maximal k-independent set selection by parallel greedy rounds.

A set S is k-independent when every two members are more than k hops
apart, and maximal when every node lies within k hops of S.  Selection
emulates greedy MIS on the k-th graph power without materializing it:
each round floods the minimum rank of the still-active nodes through k
propagation steps, keeps the active nodes whose own rank survived, then
flags and retires everything within k hops of the new picks.  Retired
nodes stop contributing a rank but still relay labels and flags, so hop
distances are always those of the full graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._propagate import flood, neighbor_reduce, worker_pool
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


def k_mis(g: Graph, k: int, ranking: Ranking, workers: int = 1) -> KMisResult:
    """Deterministic maximal k-independent set for a given ranking.

    Each round is two floods of at most k steps: the active ranks, then
    the cover from the new picks.  A flood costs O(n) to start and each
    step O(n + m) as a full sweep, or about the edges next to the last
    step's changes once those are a small share of them; a step that
    changes nothing ends its flood early, which is sound because
    min-label flooding is monotone.
    """
    if k < 1:
        raise ValueError("k_mis requires k >= 1")
    ranking.validate(g.n)
    n = g.n
    rank = ranking.rank
    sentinel = np.int64(n)
    active = np.ones(n, dtype=bool)
    in_set = np.zeros(n, dtype=bool)
    rounds = 0
    with worker_pool(workers) as pool:
        while active.any():
            rounds += 1
            for label in flood(g, np.where(active, rank, sentinel), "min",
                               sentinel, k, neighbor_reduce, workers, pool):
                pass
            chosen = active & (label == rank)
            in_set |= chosen
            for covered in flood(g, chosen.astype(np.int8), "max", np.int8(0),
                                 k, neighbor_reduce, workers, pool):
                pass
            active &= covered == 0
    return KMisResult(selected=np.flatnonzero(in_set), rounds=rounds, k=k)
