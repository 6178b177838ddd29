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

from pathlib import Path

import numpy as np

from ._propagate import neighbor_reduce
from .graph import Graph, as_node_weights, data_lines

__all__ = ["as_ranking", "load_scores", "resolve_ranking", "walk_counts"]

RANKING_SPECS = ("kdeg", "kweight", "id", "random", "const")


def as_ranking(rank, n: int) -> np.ndarray:
    """`rank` checked to be integers permuting 0..n-1 (else ValueError), as
    int64: a valid int64 array comes back itself, uncopied and unchanged."""
    rank = np.asarray(rank)
    if rank.dtype.kind not in "iu":
        raise ValueError(f"ranking must hold integers, got dtype {rank.dtype}")
    rank = rank.astype(np.int64, copy=False)
    if rank.shape != (n,):
        raise ValueError(f"ranking covers {rank.size} nodes, graph has {n}")
    if n and (rank.min() < 0 or rank.max() >= n
              or (np.bincount(rank, minlength=n) != 1).any()):
        raise ValueError("ranking must be a permutation of 0..n-1")
    return rank


def _from_scores(scores) -> np.ndarray:
    """Rank ascending by (score, node id); smaller key selected first."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(scores.size), scores))
    rank = np.empty(scores.size, dtype=np.int64)
    rank[order] = np.arange(scores.size)
    return rank


def walk_counts(g: Graph, weights, k: int, workers: int = 1) -> np.ndarray:
    """Compute (A + I)^k x by k rounds of inclusive neighborhood sums.

    The power graph is never materialized; k = 0 returns x unchanged.
    Raises ValueError at the first round whose counts overflow float64:
    every ratio score would become 0 and the order would silently fall
    back to ids.  A round that changes nothing, which only a graph
    without edges has, ends the rounds early.  `workers` is accepted and
    unused: every sweep runs on the calling thread.
    """
    if k < 0:
        raise ValueError("walk_counts requires k >= 0")
    vec = as_node_weights(weights, g.n)
    # overflow is reported below as a ValueError, not as a numpy warning
    with np.errstate(over="ignore"):
        for _ in range(k):
            nxt = neighbor_reduce(g, vec, "sum")
            if not np.isfinite(nxt).all():
                raise ValueError(f"walk counts overflow float64 at k={k}")
            if np.array_equal(nxt, vec):
                break
            vec = nxt
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


def check_spec(spec: str) -> None:
    """ValueError unless `spec` names a ranking: 'file:PATH' or one of
    RANKING_SPECS."""
    if not spec.startswith("file:") and spec not in RANKING_SPECS:
        raise ValueError(f"unknown ranking spec {spec!r}")


def resolve_ranking(g: Graph, spec, k: int | None = None, weights=None,
                    seed=0, workers: int = 1) -> np.ndarray:
    """Turn a ranking spec into a ranking: an int64 permutation of 0..n-1.

    `spec` may already be a rank array (checked by :func:`as_ranking` and
    returned), else one of 'kdeg', 'kweight', 'id', 'random', 'const', or
    'file:PATH' naming a score file for :func:`load_scores` (higher score
    first, ids break ties).  'kdeg' and 'kweight' are the degree and
    weight rules above; they need k >= 1, and `weights` (x) defaults to
    all-ones.  'const' degenerates to the id tie-break.  A ranking built
    from a spec is read-only.
    """
    if not isinstance(spec, str):
        return as_ranking(spec, g.n)
    check_spec(spec)
    if spec.startswith("file:"):
        scores = load_scores(spec[len("file:"):])
        if scores.size != g.n:
            raise ValueError(
                f"score file has {scores.size} entries, graph has {g.n} nodes")
        rank = _from_scores(-scores)
    elif spec in ("kdeg", "kweight"):
        if k is None or k < 1:
            raise ValueError(f"ranking {spec!r} requires k >= 1")
        x = np.ones(g.n) if weights is None else as_node_weights(weights, g.n)
        walk = walk_counts(g, np.ones(g.n) if spec == "kdeg" else x, k, workers)
        rank = _from_scores(-(x / walk))
    elif spec == "random":
        rank = np.random.default_rng(seed).permutation(g.n)
    else:
        rank = np.arange(g.n, dtype=np.int64)
    rank.setflags(write=False)
    return rank
