"""Cluster assignment, edge/node aggregation, and the full pipeline."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import kcoarsen.graph
from kcoarsen import (
    CoarsenedGraph,
    KMisResult,
    build,
    cluster,
    coarsen_pipeline,
    k_mis,
    reduce,
    resolve_ranking,
)
from kcoarsen.coarsen import EDGE_AGGREGATIONS
from kcoarsen.graph import connected_components
from kcoarsen.ranking import walk_counts

from . import helpers


def path5_parts():
    g = build(helpers.path_edges(5))
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 1, rank)
    return g, rank, res


def test_cluster_path5_frozen():
    g, rank, res = path5_parts()
    assert cluster(g, 1, rank, res.selected).tolist() == [0, 0, 2, 2, 4]


def test_cluster_returns_a_read_only_array_the_pipeline_passes_on():
    g, rank, res = path5_parts()
    assignment = cluster(g, 1, rank, res.selected)
    assert type(assignment) is np.ndarray and assignment.dtype == np.int64
    assert not assignment.flags.writeable
    for k in (0, 1):
        h, assignment, _ = coarsen_pipeline(g, k, ranking="id")
        assert assignment is h.assignment and not assignment.flags.writeable
    fields = [f.name for f in dataclasses.fields(CoarsenedGraph)]
    assert fields == ["keys", "weights", "centroids", "assignment", "node_values"]
    assert [f.name for f in dataclasses.fields(KMisResult)] == ["selected", "rounds"]


def test_cluster_prefers_min_rank_over_nearest():
    # centroids 0 and 3; node 2 sits 1 hop from 3 but 2 hops from the
    # lower-ranked centroid 0, and the lower rank must win
    g = build(helpers.path_edges(7))
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 2, rank)
    assert res.selected.tolist() == [0, 3, 6]
    assert cluster(g, 2, rank, res.selected).tolist() == [0, 0, 0, 3, 3, 3, 6]


def test_cluster_identity_when_everything_selected():
    g = build([], n=4)
    rank = resolve_ranking(g, "id")
    res = k_mis(g, 1, rank)
    assert cluster(g, 1, rank, res.selected).tolist() == [0, 1, 2, 3]


def test_cluster_rejects_non_covering_set():
    g, rank, _ = path5_parts()
    with pytest.raises(ValueError, match="cover"):
        cluster(g, 1, rank, np.array([0]))


def test_cluster_rejects_non_independent_set():
    g, rank, _ = path5_parts()
    with pytest.raises(ValueError, match="ranking"):
        cluster(g, 1, rank, np.array([0, 1, 3]))


def test_cluster_uses_the_selection_as_given():
    """Selected ids are indices, not values to cast: a list works, and a
    float selection that an int64 cast would truncate to [0, 2, 4] is
    refused by numpy's indexing."""
    g, rank, _ = path5_parts()
    assert cluster(g, 1, rank, [0, 2, 4]).tolist() == [0, 0, 2, 2, 4]
    with pytest.raises(IndexError):
        cluster(g, 1, rank, np.array([0.4, 2.2, 4.9]))


def test_cluster_follows_alternate_ranking():
    # same selected set, reversed priorities: ties now resolve rightward
    g, _, res = path5_parts()
    other = np.array([4, 3, 2, 1, 0])
    assert cluster(g, 1, other, res.selected).tolist() == [0, 2, 2, 4, 4]


def test_fibers_partition_the_nodes():
    g, rank, res = path5_parts()
    fib = helpers.fibers(cluster(g, 1, rank, res.selected))
    assert sorted(fib) == [0, 2, 4]
    assert fib[0].tolist() == [0, 1]
    assert fib[2].tolist() == [2, 3]
    assert fib[4].tolist() == [4]
    everything = sorted(v for members in fib.values() for v in members.tolist())
    assert everything == list(range(5))


def square_clusters():
    # 4-cycle 0-1-2-3-0 with distinct weights; clusters {0,1} and {2,3}
    g = build([(0, 1, 10.0), (1, 2, 2.0), (2, 3, 20.0), (3, 0, 5.0)])
    return g, np.array([0, 0, 2, 2])


@pytest.mark.parametrize(
    "agg, expect", [("sum", 7.0), ("max", 5.0), ("min", 2.0), ("mean", 3.5)]
)
def test_reduce_edge_aggregations(agg, expect):
    g, assignment = square_clusters()
    h = reduce(g, assignment, edge_agg=agg)
    assert h.graph.n == 2 and h.graph.m == 1
    assert h.graph.weights.tolist() == [expect, expect]
    assert h.centroids.tolist() == [0, 2]


@pytest.mark.parametrize(
    "agg, expect",
    [("keep_centroid", [1.0, 3.0]), ("sum", [3.0, 7.0]), ("mean", [1.5, 3.5])],
)
def test_reduce_node_aggregations(agg, expect):
    g, assignment = square_clusters()
    h = reduce(g, assignment, node_weights=[1.0, 2.0, 3.0, 4.0], node_agg=agg)
    assert h.node_values.tolist() == expect


def test_reduce_unweighted_counts_multiplicity():
    # two crossing edges between the clusters, no input weights
    g = build([(0, 1), (1, 2), (2, 3), (3, 0)])
    h = reduce(g, np.array([0, 0, 2, 2]))
    assert h.graph.weights.tolist() == [2.0, 2.0]


def huge_crossing_graph(third=1e308):
    """Stars around 0 and 3 (the id-ranked picks at k = 1) joined by three
    crossing edges whose weights sum beyond float64's range."""
    return build([(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (3, 6, 1.0),
                  (1, 4, 1e308), (2, 5, 1.5e308), (1, 5, third)])


def test_reduce_sum_beyond_float64_names_the_aggregation():
    with pytest.raises(ValueError, match="edge_agg 'sum'"):
        coarsen_pipeline(huge_crossing_graph(), 1, ranking="id", edge_agg="sum")


@pytest.mark.parametrize("third", [5e307, 1e308, 1.7976931348623157e308])
def test_reduce_mean_of_crossing_weights_past_float64_is_finite(third):
    h, _, result = coarsen_pipeline(huge_crossing_graph(third), 1, ranking="id",
                                    edge_agg="mean")
    assert result.selected.tolist() == [0, 3]
    assert h.graph.weights.tolist() == pytest.approx(
        [1e308 / 3 + 1.5e308 / 3 + third / 3] * 2, rel=1e-15)


def test_node_sum_beyond_float64_names_the_aggregation():
    with pytest.raises(ValueError, match="node_agg 'sum'"):
        coarsen_pipeline(build(helpers.path_edges(5)), 1, ranking="id",
                         weights=[1e308] * 5, node_agg="sum")


def test_node_mean_of_weights_past_float64_is_finite():
    h, assignment, _ = coarsen_pipeline(build(helpers.path_edges(5)), 1, ranking="id",
                                        weights=[1e308, 1.5e308, 1.7e308, 0.5, 1e308],
                                        node_agg="mean")
    assert assignment.tolist() == [0, 0, 2, 2, 4]
    assert h.node_values.tolist() == pytest.approx(
        [1e308 / 2 + 1.5e308 / 2, 1.7e308 / 2 + 0.25, 1e308], rel=1e-15)


@pytest.mark.parametrize("how", EDGE_AGGREGATIONS)
def test_reduce_matches_pure_python_contraction(small_corpus, how):
    """Bitwise, on the small corpus with non-dyadic weights: each coarse
    weight folds its crossing weights left to right in edge_list order."""
    multiple = 0
    for i, (_, edges, n) in enumerate(small_corpus):
        if not edges:  # builds an unweighted graph
            continue
        rng = helpers.make_rng("contraction", i)
        g = build([(u, v, rng.uniform(0.1, 10.0)) for u, v in edges], n=n)
        h, assignment, _ = coarsen_pipeline(g, 1, ranking="random", seed=i, edge_agg=how)
        cluster_of = np.searchsorted(h.centroids, assignment).tolist()
        triples = list(zip(*(col.tolist() for col in g.edge_list())))
        want = helpers.contraction_reference(triples, cluster_of, how)
        cu, cv, cw = h.graph.edge_list()
        got = dict(zip(zip(cu.tolist(), cv.tolist()), cw.tolist()))
        assert {pair: w.hex() for pair, w in got.items()} == {
            pair: w.hex() for pair, w in want.items()}
        pairs = Counter(tuple(sorted((cluster_of[u], cluster_of[v])))
                        for u, v, _ in triples if cluster_of[u] != cluster_of[v])
        multiple += sum(count >= 3 for count in pairs.values())
    assert multiple >= 50  # pairs whose fold order matters


@pytest.mark.parametrize("how", EDGE_AGGREGATIONS)
@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1, 2.5), (1, 2, 0.5)]])
def test_reduce_without_crossing_edges(edges, how):
    # k = 5 puts the whole path in one cluster
    g = build(edges, n=3)
    with np.errstate(all="raise"):
        h, assignment, _ = coarsen_pipeline(g, 5, ranking="kdeg", edge_agg=how,
                                            weights=[1.0, 2.0, 4.0], node_agg="sum")
    assert len(set(assignment.tolist())) == 1 and h.graph.m == 0
    assert h.graph.indptr.tolist() == [0, 0] and h.graph.indices.size == 0
    assert h.graph.weights.dtype == np.float64 and h.graph.weights.size == 0
    assert h.node_values.tolist() == [7.0]


def uniform_graph(n=20_000):
    """(u, v, g): the ends and graph of a seeded uniform random graph."""
    u, v = np.random.default_rng(0).integers(0, n, size=(2, 4 * n))
    return u, v, kcoarsen.graph._build_arrays(u, v, None, n)


def test_reduce_peak_memory_per_edge():
    """reduce's tracemalloc peak on a seeded uniform graph stays below 45
    bytes per input edge.  It reads about 20 now that reduce ends at the
    coarse edge keys; assembling the coarse CSR in reduce read about 58,
    and holding the full-length cluster-index arrays and an all-edges
    `ones` through the grouping about 90."""
    _, _, g = uniform_graph()
    ranking = resolve_ranking(g, "kdeg", k=2)
    assignment = cluster(g, 2, ranking, k_mis(g, 2, ranking).selected)
    h, peak = helpers.traced_peak(lambda: reduce(g, assignment))
    assert h.keys.size > g.m // 2  # most edges cross, as on the benchmark's graph
    assert peak / g.m < 45


def test_load_peak_memory_per_edge(tmp_path):
    """load's tracemalloc peak on that graph's edgelist, its ids shuffled,
    on its `pattern general` Matrix Market form, ids shuffled too, and on
    an edgelist of hashed ids, drawn from 0..10**12, stays below 40 bytes
    per edge.  The edgelist reads about 31 now that the ids turn dense
    inside the loader's own table and the edge keys sort in place; a
    stacked copy of the table plus a full dense-id array read about 53.
    The Matrix Market file reads about 31 too, its entries read by the
    edge-list reader; a per-entry loop with a dict read about 269.  The
    hashed ids, numbered by `searchsorted` in their sorted distinct
    values, read about 37; numbering them by `_distinct`'s argsort read
    about 68, for a load about 40% faster."""
    u, v, g = uniform_graph()
    ids = np.random.default_rng(1).permutation(g.n)
    hashed = np.random.default_rng(2).choice(10**12, size=g.n, replace=False)
    mm = f"%%MatrixMarket matrix coordinate pattern general\n{g.n} {g.n} {u.size}\n"
    for name, fmt, head, names in [("shuffled", "edgelist", "", ids),
                                   ("shuffled", "mm", mm, ids + 1),
                                   ("hashed", "edgelist", "", hashed)]:
        path = tmp_path / f"{name}.{fmt}"
        path.write_text(head + "".join(f"{a} {b}\n" for a, b in zip(
            names[u].tolist(), names[v].tolist())))
        (loaded, _), peak = helpers.traced_peak(lambda: kcoarsen.graph.load(path, fmt))
        assert loaded.m == g.m
        assert peak / g.m < 40, (name, fmt)


def test_walk_counts_peak_memory_per_edge():
    """walk_counts' tracemalloc peak on that graph stays below 16 bytes
    per edge: its sum sweeps gather a block of rows at a time (about 11),
    where one gather over all 2m arcs read about 30."""
    _, _, g = uniform_graph()
    _, peak = helpers.traced_peak(lambda: walk_counts(g, np.ones(g.n), 2))
    assert peak / g.m < 16


def test_pipeline_frees_only_a_sweep_layout_it_built():
    g = build(helpers.grid_edges(12, 12))
    coarsen_pipeline(g, 2, ranking="kdeg")
    assert "jagged" not in vars(g)  # select built it and reduce does not sweep
    layout = g.jagged
    coarsen_pipeline(g, 2, ranking="kdeg")
    assert vars(g)["jagged"] is layout  # the caller's layout stays


@pytest.mark.parametrize("how", EDGE_AGGREGATIONS)
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_lazy_coarse_graph_equals_the_built_one(how, weighted, k):
    """h.graph, assembled from h's keys on first access, is the CSR that
    _build_arrays (and the two-lexsort reference) builds from h's edges."""
    rng = helpers.make_rng("lazy", how, weighted, k)
    n = 60
    edges = helpers.random_edges(rng, n, 0.08)
    g = build([(u, v, rng.uniform(0.1, 10.0)) for u, v in edges] if weighted
              else edges, n=n)
    h, _, _ = coarsen_pipeline(g, k, ranking="random", seed=k, edge_agg=how)
    assert "graph" not in vars(h)  # no CSR until it is asked for
    u, v, w = h.edge_list()
    assert (w is None) == (k == 0 and not weighted)
    assert np.array_equal(h.keys, u * h.centroids.size + v)
    want = kcoarsen.graph._build_arrays(u, v, w, h.centroids.size)
    assert h.graph == want and h.graph is h.graph
    indptr, indices, weights = helpers.csr_reference(u, v, w, h.centroids.size)
    assert h.graph.indptr.tolist() == indptr.tolist()
    assert h.graph.indices.tolist() == indices.tolist()
    assert (h.graph.weights is None) == (weights is None)
    if weights is not None:
        assert h.graph.weights.tolist() == weights.tolist()
    if k == 0:
        assert h.graph == g
    assert not h.keys.flags.writeable


def test_reduce_rejects_unknown_aggregation():
    g, assignment = square_clusters()
    with pytest.raises(ValueError):
        reduce(g, assignment, edge_agg="median")
    with pytest.raises(ValueError):
        reduce(g, assignment, node_weights=[1.0] * 4, node_agg="median")


def test_pipeline_path5():
    g = build(helpers.path_edges(5))
    h, assignment, res = coarsen_pipeline(g, 1, ranking="id")
    assert res.selected.tolist() == [0, 2, 4]
    assert assignment.tolist() == [0, 0, 2, 2, 4]
    u, v, w = h.graph.edge_list()
    assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 2)]
    assert w.tolist() == [1.0, 1.0]
    assert h.centroids.tolist() == [0, 2, 4]
    assert h.assignment is assignment


def test_pipeline_k0_is_identity():
    g = build([(0, 1, 3.0), (1, 2, 4.0)])
    h, assignment, res = coarsen_pipeline(g, 0)
    assert h.graph == g
    assert assignment.tolist() == [0, 1, 2]
    assert res.selected.tolist() == [0, 1, 2]
    assert res.rounds == 0


def test_pipeline_large_k_collapses_each_component():
    g = build(helpers.path_edges(6))
    h, assignment, res = coarsen_pipeline(g, 6, ranking="id")
    assert h.graph.n == 1 and h.graph.m == 0
    assert assignment.tolist() == [0] * 6


def test_pipeline_preserves_component_structure():
    g = build([(0, 1), (1, 2), (3, 4), (4, 5)])
    h, _, res = coarsen_pipeline(g, 1, ranking="id")
    assert connected_components(h.graph)[0] == connected_components(g)[0]


def test_pipeline_clusters_match_selection(small_corpus):
    for g, edges, n in small_corpus[:8]:
        h, assignment, res = coarsen_pipeline(g, 2, ranking="random", seed=n)
        assert res.selected.size == h.graph.n
        assert np.array_equal(h.centroids, res.selected)
        assert np.array_equal(np.unique(assignment), res.selected)


def test_pipeline_timings_dict():
    g = build(helpers.path_edges(5))
    timings = {}
    coarsen_pipeline(g, 1, ranking="id", timings=timings)
    assert sorted(timings) == ["cluster", "ranking", "reduce", "select"]
    assert all(t >= 0.0 for t in timings.values())


def test_pipeline_weight_rule_uses_weights():
    g = build(helpers.star_edges(4))
    h, assignment, res = coarsen_pipeline(g, 1, ranking="kweight",
                                          weights=[10.0, 1.0, 1.0, 1.0])
    assert res.selected.tolist() == [0]
    assert assignment.tolist() == [0, 0, 0, 0]


def test_reduce_rejects_a_broken_assignment():
    g = build(helpers.path_edges(2))
    with pytest.raises(ValueError, match="outside the node range"):
        reduce(g, np.array([0, 9]))
    with pytest.raises(ValueError, match="outside the node range"):
        reduce(g, np.array([-1, 1]))
    with pytest.raises(ValueError, match="assigned to itself"):
        reduce(g, np.array([1, 0]))
    with pytest.raises(ValueError, match="does not match graph"):
        reduce(g, np.array([0, 0, 0]))
    assert reduce(g, np.array([1, 1])).centroids.tolist() == [1]
    square = reduce(build(helpers.path_edges(4)), np.array([0, 0, 2, 2]))
    assert square.centroids.tolist() == [0, 2]


@pytest.mark.parametrize("name, call", [
    ("cluster", lambda g: cluster(g, -1, np.arange(g.n), np.arange(g.n))),
    ("coarsen_pipeline", lambda g: coarsen_pipeline(g, -1, ranking="id")),
    ("walk_counts", lambda g: walk_counts(g, np.ones(g.n), -1)),
])
def test_negative_k_is_rejected(name, call):
    with pytest.raises(ValueError, match=f"{name} requires k >= 0"):
        call(build(helpers.path_edges(3)))


def test_from_graph_needs_one_coarse_node_per_centroid():
    with pytest.raises(ValueError, match="one node per centroid"):
        CoarsenedGraph.from_graph(build([(0, 1)]), centroids=[0, 2, 4],
                                  assignment=np.array([0, 0, 2, 2, 4]))


def test_reduce_rejects_a_centroid_assigned_away():
    g = build(helpers.path_edges(4))
    with pytest.raises(ValueError, match="every centroid must be assigned to itself"):
        reduce(g, np.array([0, 0, 3, 2]))


def test_coarsened_graph_no_self_loops(small_corpus):
    for g, edges, n in small_corpus[:6]:
        h, _, _ = coarsen_pipeline(g, 1, ranking="id")
        u, v, _ = h.graph.edge_list()
        assert (u != v).all()
