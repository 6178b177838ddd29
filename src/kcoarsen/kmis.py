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

from ._propagate import neighbor_reduce, worker_pool
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

    def as_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[self.selected] = True
        return mask


def k_mis(g: Graph, k: int, ranking: Ranking, workers: int = 1) -> KMisResult:
    """Deterministic maximal k-independent set for a given ranking.

    Runs in O(k * (n + m)) work per round; a propagation step that
    changes no label ends the inner loop early, which is sound because
    min-label flooding is monotone.
    """
    if k < 1:
        raise ValueError("k_mis requires k >= 1")
    ranking.validate(g.n)
    n = g.n
    if n == 0:
        return KMisResult(selected=np.empty(0, dtype=np.int64), rounds=0, k=k)
    rank = ranking.rank
    sentinel = np.int64(n)
    active = np.ones(n, dtype=bool)
    in_set = np.zeros(n, dtype=bool)
    rounds = 0
    with worker_pool(workers) as pool:
        while active.any():
            rounds += 1
            label = np.where(active, rank, sentinel)
            for _ in range(k):
                nxt = neighbor_reduce(g, label, "min", sentinel, workers, pool)
                if np.array_equal(nxt, label):
                    break
                label = nxt
            chosen = active & (label == rank)
            in_set |= chosen
            covered = chosen.astype(np.int8)
            for _ in range(k):
                nxt = neighbor_reduce(g, covered, "max", np.int8(0), workers, pool)
                if np.array_equal(nxt, covered):
                    break
                covered = nxt
            active &= covered == 0
    return KMisResult(selected=np.flatnonzero(in_set), rounds=rounds, k=k)
