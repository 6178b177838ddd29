"""Distance-distortion, component, and validity checks plus report I/O."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen.verify
from kcoarsen import (
    CoarsenedGraph,
    KMisResult,
    Partition,
    VerificationReport,
    build,
    coarsen_pipeline,
    k_mis,
    resolve_ranking,
    verify_reduction,
)
from kcoarsen.verify import (
    check_components,
    check_distortion,
    check_edge_bounds,
    check_kmis_validity,
)

from . import helpers


def coarsened_path(n=5, k=1):
    g = build(helpers.path_edges(n))
    h, part, res = coarsen_pipeline(g, k, ranking="id")
    return g, h, res


def test_edge_bounds_path5():
    g, h, _ = coarsened_path()
    report = check_edge_bounds(g, h, 1)
    assert report.passed
    assert sorted(report.per_coarse_edge) == [(0, 2, 2), (2, 4, 2)]


def test_edge_bounds_detect_fabricated_edge():
    # hand-built coarse graph joining the two path endpoints: span 4 > 3
    g = build(helpers.path_edges(5))
    part = Partition(assignment=np.array([0, 0, 0, 4, 4]), cluster_count=2)
    h = CoarsenedGraph(graph=build([(0, 1)]), centroids=np.array([0, 4]),
                       provenance=part)
    report = check_edge_bounds(g, h, 1)
    assert not report.passed
    assert report.violations[0].kind == "edge_bound"
    assert report.violations[0].nodes == (0, 4)
    assert report.violations[0].observed == 4.0


def test_edge_bounds_detect_disconnected_endpoints():
    g = build([(0, 1), (2, 3)])
    part = Partition(assignment=np.array([0, 0, 2, 2]), cluster_count=2)
    h = CoarsenedGraph(graph=build([(0, 1)]), centroids=np.array([0, 2]),
                       provenance=part)
    report = check_edge_bounds(g, h, 1)
    assert not report.passed
    assert report.violations[0].observed == float("inf")


def test_distortion_clean_on_pipeline(small_corpus):
    for g, edges, n in small_corpus[:8]:
        for k in (1, 2):
            h, part, res = coarsen_pipeline(g, k, ranking="random", seed=n)
            report = check_distortion(g, h, k)
            assert report.passed


def test_distortion_exhaustive_small():
    g, h, _ = coarsened_path(9, 2)
    report = check_distortion(g, h, 2)
    assert report.passed
    # 9 choose 2 pairs, all same-component, all recorded at n <= 500
    assert len(report.per_pair_sample) == 36


def test_distortion_explicit_pairs():
    g, h, _ = coarsened_path()
    report = check_distortion(g, h, 1, pairs=[(0, 4), (1, 3)])
    assert report.passed
    assert len(report.per_pair_sample) == 2
    got = {(u, v): (dg, dh) for u, v, dg, dh in report.per_pair_sample}
    assert got[(0, 4)] == (4, 2)
    assert got[(1, 3)] == (2, 1)


@pytest.mark.parametrize("pair", [(0, -1), (0, 7), (-2, 3), (5, 0)])
def test_distortion_rejects_pairs_outside_the_graph(pair):
    g, h, _ = coarsened_path()
    with pytest.raises(ValueError, match=re.escape(str(pair))):
        check_distortion(g, h, 1, pairs=[(1, 3), pair])


@pytest.mark.parametrize("pairs", [
    [(0, 1, 2), (3, 4, 5)],  # used to be read as (0, 1), (2, 3), (4, 5)
    [0, 1, 2, 3],
    [()],
    [[(0, 1)], [(2, 3)]],
])
def test_distortion_rejects_rows_that_are_not_pairs(pairs):
    g, h, _ = coarsened_path(7)
    with pytest.raises(ValueError, match="pairs must be"):
        check_distortion(g, h, 1, pairs=pairs)


def test_distortion_accepts_no_pairs():
    g, h, _ = coarsened_path()
    report = check_distortion(g, h, 1, pairs=[])
    assert report.passed and report.per_pair_sample == []


def violations(report):
    return [(v.kind, v.nodes, v.observed, v.bound) for v in report.violations]


def assert_checks_match_reference(g, h, k, work, **kwargs):
    """Both distance checks equal helpers' per-source loops exactly."""
    adj = helpers.adjacency(g.n, zip(*(a.tolist() for a in g.edge_list()[:2])))
    hg = h.graph
    coarse_adj = helpers.adjacency(
        hg.n, zip(*(a.tolist() for a in hg.edge_list()[:2])))
    index = {c: i for i, c in enumerate(h.centroids.tolist())}
    coarse_of = [index[a] for a in h.provenance.assignment.tolist()]
    edges = check_edge_bounds(g, h, k)
    assert (edges.per_coarse_edge, violations(edges)) == \
        helpers.edge_bounds_reference(adj, h.centroids.tolist(), coarse_adj, k)
    pairs = check_distortion(g, h, k, **kwargs)
    assert (pairs.per_pair_sample, violations(pairs)) == \
        helpers.distortion_reference(adj, coarse_adj, coarse_of, k, work)


def fabricated(g, seed):
    """Random centroids, a random assignment onto them, random coarse edges."""
    rng = helpers.make_rng("fabricated", seed)
    centroids = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
    assignment = np.array([rng.choice(centroids) for _ in range(g.n)])
    nc = len(centroids)
    part = Partition(assignment=assignment, cluster_count=nc)
    return CoarsenedGraph(graph=build(helpers.random_edges(rng, nc, 0.3), n=nc),
                          centroids=np.array(centroids), provenance=part)


def test_checks_match_reference_on_pipeline_coarsenings(corpus):
    for g, edges, n in corpus[::10]:
        for k in (1, 2):
            h, _, _ = coarsen_pipeline(g, k, ranking="random", seed=n)
            assert_checks_match_reference(g, h, k, helpers.pair_work(n))


def test_checks_match_reference_on_fabricated_coarsenings(corpus):
    for i, (g, edges, n) in enumerate(corpus[:40]):
        h, k = fabricated(g, i), 1 + i % 3
        rng = helpers.make_rng("pairs", i)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        pairs += pairs[:5] + [(pairs[0][0], pairs[0][0])]
        assert_checks_match_reference(g, h, k, helpers.pair_work(n))
        assert_checks_match_reference(g, h, k, helpers.pair_work(n, pairs),
                                      pairs=pairs)


def sampled_work(n, sample_pairs, seed):
    """check_distortion's seeded draws for graphs above the exhaustive limit."""
    rng = np.random.default_rng(seed)
    group = max(1, int(np.sqrt(sample_pairs)))
    n_sources = max(1, sample_pairs // group)
    sources = rng.integers(0, n, size=n_sources).tolist()
    return list(zip(sources, rng.integers(0, n, size=(n_sources, group)).tolist()))


def test_checks_match_reference_around_the_exhaustive_limit():
    for n in (500, 501):
        rng = helpers.make_rng("limit", n)
        g = build(helpers.random_edges(rng, n, 3 / n), n=n)
        work = (helpers.pair_work(n) if n <= 500 else sampled_work(n, 300, 4))
        h, _, _ = coarsen_pipeline(g, 1, ranking="kdeg")
        assert_checks_match_reference(g, h, 1, work, sample_pairs=300, seed=4)
        assert_checks_match_reference(g, fabricated(g, n), 2, work,
                                      sample_pairs=300, seed=4)


def test_verify_makes_one_search_per_distance_question(monkeypatch):
    g = build(helpers.grid_edges(30, 30))
    h, _, res = coarsen_pipeline(g, 2, ranking="kdeg")
    depths = []
    real = kcoarsen.verify.bfs

    def counted(*args, **kwargs):
        depths.append(kwargs.get("max_depth"))
        return real(*args, **kwargs)

    monkeypatch.setattr(kcoarsen.verify, "bfs", counted)
    assert verify_reduction(g, h, 2, result=res).passed
    # edge bounds, then distortion on g and on the coarse graph; a valid
    # selection needs no search to name independence pairs
    assert depths == [6, None, None]


def test_distortion_flags_merged_far_pair():
    # nodes 0 and 4 forced into one cluster: dh = 0 but dg = 4 > 2k
    g = build(helpers.path_edges(5))
    part = Partition(assignment=np.array([0, 0, 0, 0, 0]), cluster_count=1)
    h = CoarsenedGraph(graph=build([], n=1), centroids=np.array([0]),
                       provenance=part)
    report = check_distortion(g, h, 1, pairs=[(0, 4)])
    assert not report.passed
    assert report.violations[0].kind == "distortion_upper"


def test_distortion_flags_lower_bound_break():
    # identity partition but a coarse graph missing the only edge:
    # dh = unreachable while dg = 1 breaks dh <= dg
    g = build([(0, 1)])
    part = Partition(assignment=np.array([0, 1]), cluster_count=2)
    h = CoarsenedGraph(graph=build([], n=2), centroids=np.array([0, 1]),
                       provenance=part)
    report = check_distortion(g, h, 1, pairs=[(0, 1)])
    assert not report.passed
    assert report.violations[0].kind == "distortion_lower"


def test_distortion_skips_cross_component_pairs():
    g = build([(0, 1), (2, 3)])
    h, part, res = coarsen_pipeline(g, 1, ranking="id")
    report = check_distortion(g, h, 1, pairs=[(0, 2)])
    assert report.passed
    assert report.per_pair_sample == []


def test_distortion_sampling_is_seeded():
    g = build(helpers.king_grid_edges(8, 8))
    h, part, res = coarsen_pipeline(g, 1, ranking="id")
    a = check_distortion(g, h, 1, sample_pairs=40, seed=5)
    b = check_distortion(g, h, 1, sample_pairs=40, seed=5)
    assert a.per_pair_sample == b.per_pair_sample


def test_components_preserved():
    g = build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    h, part, res = coarsen_pipeline(g, 1, ranking="id")
    report = check_components(g, h)
    assert report.passed
    assert (report.graph_components, report.coarse_components) == (2, 2)


def test_components_detect_cross_component_merge():
    g = build([(0, 1), (2, 3)])
    part = Partition(assignment=np.array([0, 0, 0, 0]), cluster_count=1)
    h = CoarsenedGraph(graph=build([], n=1), centroids=np.array([0]),
                       provenance=part)
    report = check_components(g, h)
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "component_split" in kinds or "component_count" in kinds


def test_validity_accepts_real_result():
    g = build(helpers.path_edges(5))
    res = k_mis(g, 1, resolve_ranking(g, "id"))
    assert check_kmis_validity(g, 1, res).passed


def test_validity_flags_adjacent_selection():
    g = build(helpers.path_edges(5))
    fake = KMisResult(selected=np.array([0, 1, 3]), rounds=1, k=1)
    report = check_kmis_validity(g, 1, fake)
    kinds = [v.kind for v in report.violations]
    assert "independence" in kinds


def test_validity_flags_uncovered_node():
    g = build(helpers.path_edges(7))
    fake = KMisResult(selected=np.array([0]), rounds=1, k=1)
    report = check_kmis_validity(g, 1, fake)
    kinds = [v.kind for v in report.violations]
    assert "maximality" in kinds


def expected_validity(n, edges, selected, k):
    """Independence pairs, then uncovered nodes, from helpers BFS."""
    adj = helpers.adjacency(n, edges)
    out = []
    for i, s in enumerate(selected):
        dist = helpers.bfs_dists(adj, s)
        for t in selected[i + 1:]:
            if dist.get(t, k + 1) <= k:
                out.append(("independence", (s, t), float(dist[t]), float(k)))
    covered = set()
    for s in selected:
        covered |= helpers.ball(adj, s, k)
    out += [("maximality", (v,), float("inf"), float(k))
            for v in range(n) if v not in covered]
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validity_matches_bfs_oracle(data):
    n = data.draw(st.integers(1, 12))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    selected = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    k = data.draw(st.integers(1, 5))  # k >= n on the smallest graphs
    g = build(edges, n=n)
    fake = KMisResult(selected=np.array(selected, dtype=np.int64), rounds=0, k=k)
    report = check_kmis_validity(g, k, fake)
    got = [(v.kind, v.nodes, v.observed, v.bound) for v in report.violations]
    assert got == expected_validity(n, edges, selected, k)


def test_verify_reduction_green_path(small_corpus):
    for g, edges, n in small_corpus[:5]:
        h, part, res = coarsen_pipeline(g, 2, ranking="random", seed=n)
        report = verify_reduction(g, h, 2, result=res)
        assert report.passed
        assert report.all_violations() == []


def test_verify_reduction_default_result_uses_centroids():
    g, h, res = coarsened_path()
    report = verify_reduction(g, h, 1)
    assert report.passed


def test_report_round_trip_lossless():
    g, h, res = coarsened_path(9, 2)
    report = verify_reduction(g, h, 2, result=res)
    text = report.to_text()
    back = VerificationReport.from_text(text)
    assert back.to_text() == text
    assert back.passed == report.passed
    assert back.k == report.k


def test_report_round_trip_with_violations():
    g = build(helpers.path_edges(5))
    fake = KMisResult(selected=np.array([0, 1, 3]), rounds=1, k=1)
    part = Partition(assignment=np.array([0, 0, 0, 3, 3]), cluster_count=2)
    h = CoarsenedGraph(graph=build([(0, 1)]), centroids=np.array([0, 3]),
                       provenance=part)
    report = verify_reduction(g, h, 1, result=fake)
    assert not report.passed
    back = VerificationReport.from_text(report.to_text())
    assert back.to_text() == report.to_text()
    assert not back.passed
    assert [v.kind for _, v in back.all_violations()] == [
        v.kind for _, v in report.all_violations()
    ]


def test_report_text_sections():
    g, h, res = coarsened_path()
    text = verify_reduction(g, h, 1).to_text()
    for section in ("[meta]", "[edge_bounds]", "[pairs]", "[components]",
                    "[validity]", "[violations]"):
        assert section in text
