"""Distance-distortion, component, and validity checks plus report I/O."""

import numpy as np
import pytest

from kcoarsen import (
    CoarsenedGraph,
    KMisResult,
    Partition,
    VerificationReport,
    build,
    check_components,
    check_distortion,
    check_edge_bounds,
    check_kmis_validity,
    coarsen_pipeline,
    k_mis,
    resolve_ranking,
    verify_reduction,
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
    assert report.edge_distance_histogram() == {2: 2}
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
