"""Partition a graph around k-independent centroids and contract it.

Clustering assigns every node to the minimum-rank centroid within k
hops (ties cannot occur: ranks are injective).  Reduction keeps one
coarse node per centroid, drops intra-cluster edges, and aggregates the
crossing edges between two clusters into one weighted coarse edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

from ._propagate import flood, neighbor_reduce, sorted_unique
from .graph import Graph, _aggregate, _coalesce, as_node_weights
from .kmis import KMisResult, k_mis
from .ranking import Ranking, resolve_ranking

__all__ = [
    "CoarsenedGraph",
    "EDGE_AGGREGATIONS",
    "NODE_AGGREGATIONS",
    "Partition",
    "cluster",
    "coarsen_pipeline",
    "reduce",
]

EDGE_AGGREGATIONS = ("sum", "max", "min", "mean")
NODE_AGGREGATIONS = ("keep_centroid", "sum", "mean")


@dataclass(frozen=True)
class Partition:
    """Cluster assignment: node v belongs to centroid ``assignment[v]``.

    Centroid ids live in the original node-id space and every centroid
    is assigned to itself.
    """

    assignment: np.ndarray
    cluster_count: int

    def __post_init__(self):
        self.assignment.setflags(write=False)

    def validate(self) -> None:
        """Reject assignments violating the partition invariants.

        Construction stays permissive so that verification can inspect a
        broken map and report witnesses instead of crashing.
        """
        targets = self.centroids
        if targets.size != self.cluster_count:
            raise ValueError(
                f"assignment has {targets.size} clusters, expected "
                f"{self.cluster_count}"
            )
        if targets.size:
            if targets[0] < 0 or targets[-1] >= self.assignment.size:
                raise ValueError("assignment target outside the node range")
            if not np.array_equal(self.assignment[targets], targets):
                raise ValueError("every centroid must be assigned to itself")

    @cached_property
    def centroids(self) -> np.ndarray:
        """The sorted distinct assignment targets, computed once."""
        targets = sorted_unique(self.assignment)
        targets.setflags(write=False)
        return targets


@dataclass(frozen=True)
class CoarsenedGraph:
    """Contracted graph plus provenance.

    `graph` is indexed densely 0..cluster_count-1; ``centroids[i]`` is
    the original node id of coarse node i.  `node_values` carries the
    aggregated node weights when the input had any.
    """

    graph: Graph
    centroids: np.ndarray
    provenance: Partition
    node_values: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.centroids, self.node_values):
            if arr is not None:
                arr.setflags(write=False)


def cluster(g: Graph, k: int, ranking: Ranking, result: KMisResult,
            workers: int = 1) -> Partition:
    """Assign every node to the minimum-rank centroid within k hops.

    `result.selected` must be a maximal k-independent set of g under
    `ranking`; mismatched inputs surface as uncovered nodes or centroids
    assigned away from themselves, both rejected here.  `workers` is
    accepted and unused: every sweep runs on the calling thread.
    """
    if k < 0:
        raise ValueError("cluster requires k >= 0")
    ranking.validate(g.n)
    n = g.n
    selected = result.selected
    if n == 0:
        return Partition(assignment=np.empty(0, dtype=np.int64), cluster_count=0)
    rank = ranking.rank
    sentinel = np.iinfo(np.int64).max
    seeds = np.full(n, sentinel, dtype=np.int64)
    seeds[selected] = rank[selected]
    for label in flood(g, seeds, "min", k, neighbor_reduce):
        pass
    if (label == sentinel).any():
        raise ValueError("selected set does not cover the graph within k hops")
    owner = np.full(n, -1, dtype=np.int64)
    owner[rank[selected]] = selected
    assignment = owner[label]
    if not np.array_equal(assignment[selected], selected):
        raise ValueError("ranking does not match the selected set")
    return Partition(assignment=assignment, cluster_count=selected.size)


def reduce(g: Graph, partition: Partition, edge_agg: str = "sum",
           node_weights=None, node_agg: str = "keep_centroid") -> CoarsenedGraph:
    """Contract each cluster to its centroid.

    Each edge maps to its endpoints' clusters, and only the crossing
    edges' keys ``min * nc + max`` reach `_coalesce`, which folds the
    crossing edges of two clusters (1 each when g is unweighted) into one
    coarse edge by `edge_agg`, in `edge_list` order.  `node_agg`
    aggregates optional node weights: keep_centroid takes the centroid's
    own value, sum/mean fold the whole fiber.
    """
    if edge_agg not in EDGE_AGGREGATIONS:
        raise ValueError(f"unknown edge aggregation {edge_agg!r}")
    if node_agg not in NODE_AGGREGATIONS:
        raise ValueError(f"unknown node aggregation {node_agg!r}")
    if partition.assignment.shape != (g.n,):
        raise ValueError("partition does not match graph")
    partition.validate()
    centroids = partition.centroids
    node_cluster = np.searchsorted(centroids, partition.assignment)
    nc = centroids.size

    u, v, w = g.edge_list()
    u, v = node_cluster[u], node_cluster[v]
    crossing = u != v
    u, v = u[crossing], v[crossing]
    w = np.ones(u.size) if w is None else w[crossing]
    key = np.minimum(u, v) * nc + np.maximum(u, v, out=u)
    del u, v, crossing
    coarse = _coalesce(key, w, nc, edge_agg,
                       "edge_agg 'sum' gives a coarse edge weight beyond float64's range")

    node_values = None
    if node_weights is not None:
        x = as_node_weights(node_weights, g.n)
        if node_agg == "keep_centroid":
            node_values = x[centroids]
        else:
            node_values = _aggregate(
                x, node_cluster, nc, node_agg,
                "node_agg 'sum' gives a coarse node weight beyond float64's range")

    return CoarsenedGraph(graph=coarse, centroids=centroids,
                          provenance=partition, node_values=node_values)


def coarsen_pipeline(g: Graph, k: int, ranking="kweight", weights=None,
                     edge_agg: str = "sum", node_agg: str = "keep_centroid",
                     seed=0, workers: int = 1, timings: dict | None = None
                     ) -> tuple[CoarsenedGraph, Partition, KMisResult]:
    """rank -> select -> cluster -> reduce, in one call.

    `ranking` is a Ranking or one of the specs accepted by
    :func:`kcoarsen.ranking.resolve_ranking`.  k = 0 is the identity
    coarsening: the input graph comes back unchanged under an identity
    assignment.  When `timings` is a dict it receives per-phase wall
    times in seconds under 'ranking', 'select', 'cluster' and 'reduce'.
    """
    if k < 0:
        raise ValueError("coarsen_pipeline requires k >= 0")
    if k == 0:
        identity = np.arange(g.n, dtype=np.int64)
        partition = Partition(assignment=identity.copy(), cluster_count=g.n)
        result = KMisResult(selected=identity.copy(), rounds=0, k=0)
        node_values = None if weights is None else as_node_weights(weights, g.n)
        coarse = CoarsenedGraph(graph=g, centroids=identity,
                                provenance=partition, node_values=node_values)
        if timings is not None:
            timings.update({"ranking": 0.0, "select": 0.0, "cluster": 0.0,
                            "reduce": 0.0})
        return coarse, partition, result

    t0 = perf_counter()
    ranking = resolve_ranking(g, ranking, k=k, weights=weights, seed=seed,
                              workers=workers)
    t1 = perf_counter()
    result = k_mis(g, k, ranking, workers=workers)
    t2 = perf_counter()
    partition = cluster(g, k, ranking, result, workers=workers)
    t3 = perf_counter()
    coarse = reduce(g, partition, edge_agg=edge_agg, node_weights=weights,
                    node_agg=node_agg)
    t4 = perf_counter()
    if timings is not None:
        timings.update({"ranking": t1 - t0, "select": t2 - t1,
                        "cluster": t3 - t2, "reduce": t4 - t3})
    return coarse, partition, result
