"""Partition a graph around k-independent centroids and contract it.

Clustering assigns every node to the minimum-rank centroid within k
hops (ties cannot occur: ranks are injective).  The assignment is a
plain read-only int64 array: node v belongs to centroid
``assignment[v]``, an original node id, and every centroid is assigned
to itself.  Reduction keeps one coarse node per centroid, drops
intra-cluster edges, and aggregates the crossing edges between two
clusters into one weighted coarse edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

from ._propagate import flood, neighbor_reduce, row_blocks, sorted_unique
from .graph import (Graph, _aggregate, _assemble, _edge_keys, _fold,
                    as_node_weights)
from .kmis import KMisResult, k_mis
from .ranking import as_ranking, resolve_ranking

__all__ = [
    "CoarsenedGraph",
    "EDGE_AGGREGATIONS",
    "NODE_AGGREGATIONS",
    "cluster",
    "coarsen_pipeline",
    "reduce",
]

EDGE_AGGREGATIONS = ("sum", "max", "min", "mean")
NODE_AGGREGATIONS = ("keep_centroid", "sum", "mean")


@dataclass(frozen=True)
class CoarsenedGraph:
    """A contraction plus the cluster map it contracted.

    Coarse node i stands for the cluster of ``centroids[i]``, an original
    node id, and `assignment` maps each input node to its centroid's id.
    `keys` are the coarse edges: the sorted distinct keys
    ``i * nc + j`` (i < j, nc the cluster count) of the cluster pairs
    that input edges cross.  `weights` holds each key's float64 weight,
    or is None for an unweighted coarse graph.  `graph`, the CSR indexed
    0..nc-1, is assembled from them on first access.  `node_values`
    carries the aggregated node weights when the input had any.  Every
    array is made read-only.  Construction does not check the
    assignment, so that verification can report a broken map.
    """

    keys: np.ndarray
    weights: np.ndarray | None
    centroids: np.ndarray
    assignment: np.ndarray
    node_values: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.keys, self.weights, self.centroids, self.assignment,
                    self.node_values):
            if arr is not None:
                arr.setflags(write=False)

    @classmethod
    def from_graph(cls, graph: Graph, centroids, assignment: np.ndarray,
                   node_values=None) -> "CoarsenedGraph":
        """The coarsening whose coarse CSR is `graph`, node i being
        ``centroids[i]``'s cluster."""
        centroids = np.asarray(centroids, dtype=np.int64)
        if centroids.shape != (graph.n,):
            raise ValueError("the coarse graph needs one node per centroid")
        keys, weights = _crossing_keys(graph, np.arange(graph.n), graph.n)
        return cls(keys=keys, weights=weights, centroids=centroids,
                   assignment=assignment, node_values=node_values)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The coarse edges as (u, v, w) arrays with u < v, ordered as
        `Graph.edge_list` orders them, without assembling the CSR."""
        u, v = np.divmod(self.keys, self.centroids.size)
        return u, v, self.weights

    @cached_property
    def graph(self) -> Graph:
        """The coarse CSR, assembled from `keys` and `weights` once."""
        return _assemble(self.keys.copy(), self.weights, self.centroids.size)

    @cached_property
    def _cluster_of(self) -> np.ndarray:
        """Each node's coarse index, its target's index in `centroids`, or
        -1 for a target that is not a centroid: verify's cluster map,
        computed once and read-only."""
        at = np.searchsorted(self.centroids, self.assignment)
        known = at < self.centroids.size
        known[known] = self.centroids[at[known]] == self.assignment[known]
        at[~known] = -1
        at.setflags(write=False)
        return at


def _crossing_keys(g: Graph, cluster_of: np.ndarray, nc: int
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """The `_edge_keys` ``lo * nc + hi`` of the clusters lo < hi of the
    ends of g's edges, in `edge_list` order, and those edges' weights (None
    when g is unweighted); an edge inside one cluster keys -1 and drops.
    `cluster_of[v]` is v's cluster, one of 0..nc-1.  The CSR rows go by
    `row_blocks`, so no array over all 2m arcs is built."""
    key = np.empty(g.m, dtype=np.int64)
    w = None if g.weights is None else np.empty(g.m)
    count = 0
    for first, last in row_blocks(g):
        arcs = slice(g.indptr[first], g.indptr[last])
        src = np.repeat(np.arange(first, last), g.degrees[first:last])
        dst = g.indices[arcs]
        keep = src < dst  # each edge once, from its smaller end
        block = _edge_keys(cluster_of[src[keep]], cluster_of[dst[keep]], nc)
        cross = block >= 0  # an edge inside one cluster keys as a self-loop
        block = block[cross]
        key[count:count + block.size] = block
        if w is not None:
            w[count:count + block.size] = g.weights[arcs][keep][cross]
        count += block.size
    return key[:count], None if w is None else w[:count]


def cluster(g: Graph, k: int, rank, selected, workers: int = 1) -> np.ndarray:
    """Assign every node to the minimum-rank centroid within k hops: the
    read-only assignment array, ``assignment[v]`` v's centroid.

    `selected` must hold the ids of a maximal k-independent set of g under
    the ranking `rank`, which `as_ranking` checks; mismatched inputs surface
    as uncovered nodes or centroids assigned away from themselves, both
    rejected here.  `workers` is accepted and unused.
    """
    if k < 0:
        raise ValueError("cluster requires k >= 0")
    rank = as_ranking(rank, g.n)
    n = g.n
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
    assignment.setflags(write=False)
    return assignment


def reduce(g: Graph, assignment: np.ndarray, edge_agg: str = "sum",
           node_weights=None, node_agg: str = "keep_centroid") -> CoarsenedGraph:
    """Contract each cluster of `assignment` to its centroid.

    The centroids are the distinct targets, each a node assigned to
    itself (else ValueError); the array, made read-only, is the result's
    `assignment`.  The result holds the contraction, not a CSR: the
    sorted distinct keys ``lo * nc + hi`` of the cluster pairs that g's
    edges cross, from `_crossing_keys` in `edge_list` order, and each
    pair's weight, the `_fold` of its crossing edges' weights by
    `edge_agg` in that order (unweighted edges weigh 1 each).  `node_agg`
    aggregates optional node weights: keep_centroid takes the centroid's
    own value, sum/mean fold the whole fiber.
    """
    if edge_agg not in EDGE_AGGREGATIONS:
        raise ValueError(f"unknown edge aggregation {edge_agg!r}")
    if node_agg not in NODE_AGGREGATIONS:
        raise ValueError(f"unknown node aggregation {node_agg!r}")
    if assignment.shape != (g.n,):
        raise ValueError("assignment does not match graph")
    centroids = sorted_unique(assignment)
    if ((centroids < 0) | (centroids >= g.n)).any():
        raise ValueError("assignment target outside the node range")
    if not np.array_equal(assignment[centroids], centroids):
        raise ValueError("every centroid must be assigned to itself")
    node_cluster = np.searchsorted(centroids, assignment)
    nc = centroids.size

    node_values = None
    if node_weights is not None:
        x = as_node_weights(node_weights, g.n)
        if node_agg == "keep_centroid":
            node_values = x[centroids]
        else:
            node_values = _aggregate(
                x, node_cluster, nc, node_agg,
                "node_agg 'sum' gives a coarse node weight beyond float64's range")

    key, w = _crossing_keys(g, node_cluster, nc)
    del node_cluster
    key, w = _fold(key, w, edge_agg, overflow="edge_agg 'sum' gives a coarse "
                   "edge weight beyond float64's range")
    key = key.copy()  # frees the crossing keys

    return CoarsenedGraph(keys=key, weights=w, centroids=centroids,
                          assignment=assignment, node_values=node_values)


def coarsen_pipeline(g: Graph, k: int, ranking="kweight", weights=None,
                     edge_agg: str = "sum", node_agg: str = "keep_centroid",
                     seed=0, workers: int = 1, timings: dict | None = None
                     ) -> tuple[CoarsenedGraph, np.ndarray, KMisResult]:
    """rank -> select -> cluster -> reduce, in one call: the coarsening,
    its assignment (the same array as ``coarse.assignment``) and the
    selection.

    `ranking` is a rank array or one of the specs accepted by
    :func:`kcoarsen.ranking.resolve_ranking`.  k = 0 is the identity
    coarsening: the coarse graph equals the input under an identity
    assignment.  When `timings` is a dict it receives per-phase wall
    times in seconds under 'ranking', 'select', 'cluster' and 'reduce'.
    A sweep layout (`Graph.jagged`) that select builds lives until
    cluster returns, as `reduce` does not sweep; one that `g` held
    before the call stays.
    """
    if k < 0:
        raise ValueError("coarsen_pipeline requires k >= 0")
    if k == 0:
        identity = np.arange(g.n, dtype=np.int64)
        result = KMisResult(selected=identity, rounds=0)
        node_values = None if weights is None else as_node_weights(weights, g.n)
        coarse = CoarsenedGraph.from_graph(g, identity, identity, node_values)
        if timings is not None:
            timings.update({"ranking": 0.0, "select": 0.0, "cluster": 0.0,
                            "reduce": 0.0})
        return coarse, identity, result

    laid_out = "jagged" in vars(g)
    t0 = perf_counter()
    rank = resolve_ranking(g, ranking, k=k, weights=weights, seed=seed,
                           workers=workers)
    t1 = perf_counter()
    result = k_mis(g, k, rank, workers=workers)
    t2 = perf_counter()
    assignment = cluster(g, k, rank, result.selected, workers=workers)
    if not laid_out:
        vars(g).pop("jagged", None)
    t3 = perf_counter()
    coarse = reduce(g, assignment, edge_agg=edge_agg, node_weights=weights,
                    node_agg=node_agg)
    t4 = perf_counter()
    if timings is not None:
        timings.update({"ranking": t1 - t0, "select": t2 - t1,
                        "cluster": t3 - t2, "reduce": t4 - t3})
    return coarse, assignment, result
