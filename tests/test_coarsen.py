"""Cluster assignment, edge/node aggregation, and the full pipeline."""

import numpy as np
import pytest

from kcoarsen import (
    CoarsenedGraph,
    KMisResult,
    Partition,
    Ranking,
    build,
    cluster,
    coarsen_pipeline,
    k_mis,
    reduce,
    resolve_ranking,
)
from kcoarsen.graph import connected_components

from . import helpers


def path5_parts():
    g = build(helpers.path_edges(5))
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 1, rank)
    return g, rank, res


def test_cluster_path5_frozen():
    g, rank, res = path5_parts()
    part = cluster(g, 1, rank, res)
    assert part.assignment.tolist() == [0, 0, 2, 2, 4]
    assert part.cluster_count == 3
    assert part.centroids.tolist() == [0, 2, 4]


def test_cluster_prefers_min_rank_over_nearest():
    # centroids 0 and 3; node 2 sits 1 hop from 3 but 2 hops from the
    # lower-ranked centroid 0, and the lower rank must win
    g = build(helpers.path_edges(7))
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 2, rank)
    assert res.selected.tolist() == [0, 3, 6]
    part = cluster(g, 2, rank, res)
    assert part.assignment.tolist() == [0, 0, 0, 3, 3, 3, 6]


def test_cluster_identity_when_everything_selected():
    g = build([], n=4)
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 1, rank)
    part = cluster(g, 1, rank, res)
    assert part.assignment.tolist() == [0, 1, 2, 3]


def test_cluster_rejects_non_covering_set():
    g, rank, _ = path5_parts()
    fake = KMisResult(selected=np.array([0]), rounds=1, k=1)
    with pytest.raises(ValueError, match="cover"):
        cluster(g, 1, rank, fake)


def test_cluster_rejects_non_independent_set():
    g, rank, _ = path5_parts()
    fake = KMisResult(selected=np.array([0, 1, 3]), rounds=1, k=1)
    with pytest.raises(ValueError, match="ranking"):
        cluster(g, 1, rank, fake)


def test_cluster_follows_alternate_ranking():
    # same selected set, reversed priorities: ties now resolve rightward
    g, _, res = path5_parts()
    other = Ranking(np.array([4, 3, 2, 1, 0]))
    part = cluster(g, 1, other, res)
    assert part.assignment.tolist() == [0, 2, 2, 4, 4]


def test_fibers_partition_the_nodes():
    g, rank, res = path5_parts()
    part = cluster(g, 1, rank, res)
    fib = helpers.fibers(part.assignment)
    assert sorted(fib) == [0, 2, 4]
    assert fib[0].tolist() == [0, 1]
    assert fib[2].tolist() == [2, 3]
    assert fib[4].tolist() == [4]
    everything = sorted(v for members in fib.values() for v in members.tolist())
    assert everything == list(range(5))


def square_partition():
    # 4-cycle 0-1-2-3-0 with distinct weights; clusters {0,1} and {2,3}
    g = build([(0, 1, 10.0), (1, 2, 2.0), (2, 3, 20.0), (3, 0, 5.0)])
    part = Partition(assignment=np.array([0, 0, 2, 2]), cluster_count=2)
    return g, part


@pytest.mark.parametrize(
    "agg, expect", [("sum", 7.0), ("max", 5.0), ("min", 2.0), ("mean", 3.5)]
)
def test_reduce_edge_aggregations(agg, expect):
    g, part = square_partition()
    h = reduce(g, part, edge_agg=agg)
    assert h.graph.n == 2 and h.graph.m == 1
    assert h.graph.weights.tolist() == [expect, expect]
    assert h.centroids.tolist() == [0, 2]


@pytest.mark.parametrize(
    "agg, expect",
    [("keep_centroid", [1.0, 3.0]), ("sum", [3.0, 7.0]), ("mean", [1.5, 3.5])],
)
def test_reduce_node_aggregations(agg, expect):
    g, part = square_partition()
    h = reduce(g, part, node_weights=[1.0, 2.0, 3.0, 4.0], node_agg=agg)
    assert h.node_values.tolist() == expect


def test_reduce_unweighted_counts_multiplicity():
    # two crossing edges between the clusters, no input weights
    g = build([(0, 1), (1, 2), (2, 3), (3, 0)])
    part = Partition(assignment=np.array([0, 0, 2, 2]), cluster_count=2)
    h = reduce(g, part)
    assert h.graph.weights.tolist() == [2.0, 2.0]


def test_reduce_rejects_unknown_aggregation():
    g, part = square_partition()
    with pytest.raises(ValueError):
        reduce(g, part, edge_agg="median")
    with pytest.raises(ValueError):
        reduce(g, part, node_weights=[1.0] * 4, node_agg="median")


def test_pipeline_path5():
    g = build(helpers.path_edges(5))
    h, part, res = coarsen_pipeline(g, 1, ranking="id")
    assert res.selected.tolist() == [0, 2, 4]
    assert part.assignment.tolist() == [0, 0, 2, 2, 4]
    u, v, w = h.graph.edge_list()
    assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 2)]
    assert w.tolist() == [1.0, 1.0]
    assert h.centroids.tolist() == [0, 2, 4]
    assert h.provenance.assignment.tolist() == part.assignment.tolist()


def test_pipeline_k0_is_identity():
    g = build([(0, 1, 3.0), (1, 2, 4.0)])
    h, part, res = coarsen_pipeline(g, 0)
    assert h.graph == g
    assert part.assignment.tolist() == [0, 1, 2]
    assert res.selected.tolist() == [0, 1, 2]
    assert res.k == 0


def test_pipeline_large_k_collapses_each_component():
    g = build(helpers.path_edges(6))
    h, part, res = coarsen_pipeline(g, 6, ranking="id")
    assert h.graph.n == 1 and h.graph.m == 0
    assert part.assignment.tolist() == [0] * 6


def test_pipeline_preserves_component_structure():
    g = build([(0, 1), (1, 2), (3, 4), (4, 5)])
    h, part, res = coarsen_pipeline(g, 1, ranking="id")
    assert connected_components(h.graph)[0] == connected_components(g)[0]


def test_pipeline_cluster_count_matches_selection(small_corpus):
    for g, edges, n in small_corpus[:8]:
        h, part, res = coarsen_pipeline(g, 2, ranking="random", seed=n)
        assert part.cluster_count == res.selected.size == h.graph.n
        assert np.array_equal(h.centroids, res.selected)
        assert np.array_equal(part.centroids, res.selected)


def test_pipeline_timings_dict():
    g = build(helpers.path_edges(5))
    timings = {}
    coarsen_pipeline(g, 1, ranking="id", timings=timings)
    assert sorted(timings) == ["cluster", "ranking", "reduce", "select"]
    assert all(t >= 0.0 for t in timings.values())


def test_pipeline_weight_rule_uses_weights():
    g = build(helpers.star_edges(4))
    h, part, res = coarsen_pipeline(g, 1, ranking="kweight",
                                    weights=[10.0, 1.0, 1.0, 1.0])
    assert res.selected.tolist() == [0]
    assert part.assignment.tolist() == [0, 0, 0, 0]


def test_partition_validate_rejects_bad_assignment():
    with pytest.raises(ValueError):
        Partition(assignment=np.array([0, 9]), cluster_count=2).validate()
    with pytest.raises(ValueError):
        Partition(assignment=np.array([1, 0]), cluster_count=2).validate()
    with pytest.raises(ValueError):
        Partition(assignment=np.array([0, 0]), cluster_count=2).validate()
    Partition(assignment=np.array([1, 1]), cluster_count=1).validate()
    Partition(assignment=np.array([0, 0, 2, 2]), cluster_count=2).validate()


def test_reduce_rejects_invalid_partition():
    g = build(helpers.path_edges(4))
    bad = Partition(assignment=np.array([0, 0, 3, 2]), cluster_count=2)
    with pytest.raises(ValueError):
        reduce(g, bad)


def test_coarsened_graph_no_self_loops(small_corpus):
    for g, edges, n in small_corpus[:6]:
        h, _, _ = coarsen_pipeline(g, 1, ranking="id")
        u, v, _ = h.graph.edge_list()
        assert (u != v).all()
