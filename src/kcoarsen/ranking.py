"""Node rankings: walk-count statistics and the priority orders built on them.

A ranking assigns every node a distinct integer priority; smaller means
selected earlier.  The two weight-aware rules score node v as

    degree rule:  w(v) = x_v / [(A + I)^k 1]_v
    weight rule:  w(v) = x_v / [(A + I)^k x]_v

with binary adjacency A, and order nodes by decreasing w(v) (node id
breaks ties).  Scores are compared as (score, id) pairs, never via
float perturbation, so rankings are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._propagate import neighbor_reduce
from .graph import Graph, NodeWeights, data_lines

__all__ = ["Ranking", "load_scores", "resolve_ranking", "walk_counts"]

RANKING_SPECS = ("kdeg", "kweight", "id", "random", "const")


@dataclass(frozen=True)
class Ranking:
    """Injective node priorities: `rank` is a permutation of 0..n-1."""

    rank: np.ndarray

    def __post_init__(self):
        rank = np.asarray(self.rank, dtype=np.int64)
        rank.setflags(write=False)
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        return self.rank.size

    def validate(self, n: int) -> None:
        if self.rank.shape != (n,):
            raise ValueError(f"ranking covers {self.rank.size} nodes, graph has {n}")
        if n and not np.array_equal(np.bincount(self.rank, minlength=n),
                                    np.ones(n, dtype=np.int64)):
            raise ValueError("ranking must be a permutation of 0..n-1")

    @classmethod
    def from_scores(cls, scores) -> "Ranking":
        """Rank ascending by (score, node id); smaller key selected first."""
        scores = np.asarray(scores, dtype=np.float64)
        order = np.lexsort((np.arange(scores.size), scores))
        rank = np.empty(scores.size, dtype=np.int64)
        rank[order] = np.arange(scores.size)
        return cls(rank)


def walk_counts(g: Graph, weights, k: int, workers: int = 1) -> np.ndarray:
    """Compute (A + I)^k x by k rounds of inclusive neighborhood sums.

    The power graph is never materialized; k = 0 returns x unchanged.
    Raises ValueError when the counts overflow float64: every ratio
    score would become 0 and the order would silently fall back to ids.
    """
    if k < 0:
        raise ValueError("walk_counts requires k >= 0")
    x = NodeWeights.coerce(weights, g.n)
    vec = x.values.copy()
    # overflow is reported below as a ValueError, not as a numpy warning
    with np.errstate(over="ignore"):
        for _ in range(k):
            vec = neighbor_reduce(g, vec, "sum", 0.0, workers)
    if not np.isfinite(vec).all():
        raise ValueError(f"walk counts overflow float64 at k={k}")
    return vec


def load_scores(path) -> np.ndarray:
    """Read one real score per line; '#'/'%' comments and blanks skipped."""
    values = []
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: not a real number: {line!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}, line {lineno}: score is not finite: {line!r}")
            values.append(value)
    return np.array(values, dtype=np.float64)


def resolve_ranking(g: Graph, spec, k: int | None = None, weights=None,
                    seed=0, workers: int = 1) -> Ranking:
    """Turn a ranking spec into a Ranking.

    `spec` may already be a Ranking (validated and returned), one of
    'kdeg', 'kweight', 'id', 'random', 'const', or 'file:PATH' naming a
    score file for :func:`load_scores` (higher score first, ids break
    ties).  'kdeg' and 'kweight' are the degree and weight rules above;
    they need k >= 1, and `weights` (x) defaults to all-ones.  'const'
    degenerates to the id tie-break.
    """
    if isinstance(spec, Ranking):
        spec.validate(g.n)
        return spec
    if isinstance(spec, str) and spec.startswith("file:"):
        scores = load_scores(spec[len("file:"):])
        if scores.size != g.n:
            raise ValueError(
                f"score file has {scores.size} entries, graph has {g.n} nodes")
        return Ranking.from_scores(-scores)
    if spec not in RANKING_SPECS:
        raise ValueError(f"unknown ranking spec {spec!r}")
    if spec in ("kdeg", "kweight"):
        if k is None or k < 1:
            raise ValueError(f"ranking {spec!r} requires k >= 1")
        x = NodeWeights.ones(g.n) if weights is None else NodeWeights.coerce(weights, g.n)
        walk = walk_counts(g, NodeWeights.ones(g.n) if spec == "kdeg" else x,
                           k, workers)
        return Ranking.from_scores(-(x.values / walk))
    if spec == "random":
        return Ranking(np.random.default_rng(seed).permutation(g.n))
    return Ranking(np.arange(g.n, dtype=np.int64))
