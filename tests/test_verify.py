"""Distance-distortion, component, and validity checks plus report I/O."""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcoarsen.verify
from kcoarsen import (
    CoarsenedGraph,
    VerificationReport,
    build,
    coarsen_pipeline,
    k_mis,
    resolve_ranking,
    verify_reduction,
)
from kcoarsen.graph import bfs
from kcoarsen.verify import (
    ComponentReport,
    DistortionReport,
    ValidityReport,
    Violation,
    DEFAULT_SAMPLE_PAIRS,
    check_components,
    check_distortion,
    check_edge_bounds,
    check_kmis_validity,
)

from . import helpers


def coarsened_path(n=5, k=1):
    g = build(helpers.path_edges(n))
    h, _, res = coarsen_pipeline(g, k, ranking="id")
    return g, h, res


def edge_section(g, h, k, edge_agg="sum"):
    """The edge-bounds section of an evidence run: the span search's
    records and violations, then check_edge_bounds' violations."""
    return verify_reduction(g, h, k, edge_agg=edge_agg, evidence=True).edge_bounds


def distortion_section(g, h, k, **kwargs):
    """The distortion section of an evidence run: the pair searches'
    records and violations, then check_distortion's violations."""
    return verify_reduction(g, h, k, evidence=True, **kwargs).distortion


def pair_search(g, h, k, pairs):
    """verify_reduction's pair searches over the explicit `pairs`."""
    sample = kcoarsen.verify._pair_sample(g.n, pairs, DEFAULT_SAMPLE_PAIRS, 0)
    return kcoarsen.verify._check_pairs(g, h.graph, k, h._cluster_of, *sample)


def test_edge_bounds_path5():
    g, h, _ = coarsened_path()
    report = edge_section(g, h, 1)
    assert report.passed
    assert sorted(map(tuple, report.per_coarse_edge.tolist())) == [(0, 2, 2), (2, 4, 2)]


def test_edge_bounds_detect_fabricated_edge():
    # hand-built coarse graph joining the two path endpoints: span 4 > 3
    g = build(helpers.path_edges(5))
    h = CoarsenedGraph.from_graph(build([(0, 1)]), centroids=np.array([0, 4]),
                                  assignment=np.array([0, 0, 0, 4, 4]))
    report = edge_section(g, h, 1)
    assert not report.passed
    assert report.violations[0].kind == "edge_bound"
    assert report.violations[0].nodes == (0, 4)
    assert report.violations[0].observed == 4.0
    # the contraction holds: only the span search sees the span
    assert check_edge_bounds(g, h).passed


def test_edge_bounds_detect_disconnected_endpoints():
    g = build([(0, 1), (2, 3)])
    h = CoarsenedGraph.from_graph(build([(0, 1)]), centroids=np.array([0, 2]),
                                  assignment=np.array([0, 0, 2, 2]))
    report = edge_section(g, h, 1)
    assert not report.passed
    assert report.violations[0].observed == float("inf")


def grid_coarsening(k=1):
    g = build(helpers.grid_edges(12, 12))
    h, _, res = coarsen_pipeline(g, k, ranking="kdeg")
    return g, h, res


def with_keys(h, keys, weights):
    return CoarsenedGraph(keys=keys, weights=weights, centroids=h.centroids,
                          assignment=h.assignment)


def test_edge_bounds_report_a_dropped_coarse_edge():
    g, h, _ = grid_coarsening()
    assert edge_section(g, h, 1).passed
    drop = 5
    cut = with_keys(h, np.delete(h.keys, drop), np.delete(h.weights, drop))
    i, j = divmod(int(h.keys[drop]), h.centroids.size)
    # unweighted input under edge_agg sum: a coarse weight counts the
    # input edges that cross between its clusters
    assert h.weights[drop] >= 1
    assert violations(edge_section(g, cut, 1)) == [(
        "missing_coarse_edge", (int(h.centroids[i]), int(h.centroids[j])),
        float(h.weights[drop]), 0.0)]


def test_edge_bounds_report_an_extra_coarse_edge_within_the_span_bounds():
    k = 1
    g, h, res = grid_coarsening(k)
    nc = h.centroids.size
    i, j = np.triu_indices(nc, 1)
    fresh = ~np.isin(i * nc + j, h.keys)
    i, j = i[fresh], j[fresh]
    span = bfs(g, h.centroids[i], h.centroids[j], max_depth=2 * k + 1)
    inside = np.flatnonzero((span >= k + 1) & (span <= 2 * k + 1))
    assert inside.size  # such a pair exists, so no span check can see it
    key = i[inside[0]] * nc + j[inside[0]]
    at = np.searchsorted(h.keys, key)
    extra = with_keys(h, np.insert(h.keys, at, key), np.insert(h.weights, at, 1.0))
    a, b = int(h.centroids[i[inside[0]]]), int(h.centroids[j[inside[0]]])
    assert violations(edge_section(g, extra, k)) == [
        ("extra_coarse_edge", (a, b), 0.0, 1.0)]
    # every other check passes: the distance bounds still hold over all pairs
    report = verify_reduction(g, extra, k, selected=res.selected)
    assert [section for section, _ in report.all_violations()] == ["edge_bounds"]


@pytest.mark.parametrize("how", ["sum", "max", "min", "mean"])
def test_edge_bounds_report_coarse_weights_one_ulp_off(how):
    """Each coarse weight must equal, to the bit, helpers' left-to-right
    fold of its crossing weights by the same edge_agg."""
    rng = helpers.make_rng("coarse-weight", how)
    g = build([(u, v, rng.uniform(0.1, 10.0)) for u, v in helpers.grid_edges(12, 12)])
    h, assignment, _ = coarsen_pipeline(g, 1, ranking="kdeg", edge_agg=how)
    cluster_of = np.searchsorted(h.centroids, assignment).tolist()
    want = helpers.contraction_reference(
        list(zip(*(col.tolist() for col in g.edge_list()))), cluster_of, how)
    assert edge_section(g, h, 1, how).passed
    bumped = h.weights.copy()
    off = [0, 17, h.keys.size - 1]
    bumped[off] = np.nextafter(bumped[off], np.inf)
    nc = h.centroids.size
    expect = []
    for i in off:
        a, b = divmod(int(h.keys[i]), nc)
        expect.append(("coarse_weight", (int(h.centroids[a]), int(h.centroids[b])),
                       float(bumped[i]), want[a, b]))
    assert violations(edge_section(g, with_keys(h, h.keys, bumped), 1, how)) \
        == expect
    with pytest.raises(ValueError, match="unknown edge aggregation"):
        check_edge_bounds(g, h, "median")


def test_distortion_clean_on_pipeline(small_corpus):
    for g, edges, n in small_corpus[:8]:
        for k in (1, 2):
            h, _, res = coarsen_pipeline(g, k, ranking="random", seed=n)
            report = distortion_section(g, h, k)
            assert report.passed


def test_distortion_exhaustive_small():
    g, h, _ = coarsened_path(9, 2)
    report = distortion_section(g, h, 2)
    assert report.passed
    # 9 choose 2 pairs, all same-component, all recorded at n <= 500
    assert len(report.per_pair_sample) == 36


def test_distortion_explicit_pairs():
    g, h, _ = coarsened_path()
    report = pair_search(g, h, 1, [(0, 4), (1, 3)])
    assert report.passed and check_distortion(g, h, 1).passed
    assert len(report.per_pair_sample) == 2
    got = {(u, v): (dg, dh) for u, v, dg, dh in report.per_pair_sample.tolist()}
    assert got[(0, 4)] == (4, 2)
    assert got[(1, 3)] == (2, 1)


@pytest.mark.parametrize("sample_pairs", [0, -5])
def test_distortion_rejects_sample_pairs_below_one(sample_pairs):
    g, h, _ = coarsened_path()
    with pytest.raises(ValueError, match=f"sample_pairs must be at least 1, got {sample_pairs}"):
        verify_reduction(g, h, 1, sample_pairs=sample_pairs)


@pytest.mark.parametrize("pair", [(0, -1), (0, 7), (-2, 3), (5, 0)])
def test_distortion_rejects_pairs_outside_the_graph(pair):
    g, h, _ = coarsened_path()
    with pytest.raises(ValueError, match=re.escape(str(pair))):
        pair_search(g, h, 1, [(1, 3), pair])


@pytest.mark.parametrize("pairs", [
    [(0, 1, 2), (3, 4, 5)],  # used to be read as (0, 1), (2, 3), (4, 5)
    [0, 1, 2, 3],
    [()],
    [[(0, 1)], [(2, 3)]],
])
def test_distortion_rejects_rows_that_are_not_pairs(pairs):
    g, h, _ = coarsened_path(7)
    with pytest.raises(ValueError, match="pairs must be"):
        pair_search(g, h, 1, pairs)


def test_distortion_accepts_no_pairs():
    g, h, _ = coarsened_path()
    report = pair_search(g, h, 1, [])
    assert report.passed and check_distortion(g, h, 1).passed
    assert report.per_pair_sample.size == 0


def violations(report):
    return [(v.kind, v.nodes, v.observed, v.bound) for v in report.violations]


def reference_graphs(g, h):
    """helpers' views of g and h: the input's adjacency and edges, the
    coarse adjacency and edges, and each node's coarse index."""
    input_edges = list(zip(*(a.tolist() for a in g.edge_list()[:2])))
    hg = h.graph
    coarse_edges = list(zip(*(a.tolist() for a in hg.edge_list()[:2])))
    index = {c: i for i, c in enumerate(h.centroids.tolist())}
    coarse_of = [index[a] for a in h.assignment.tolist()]
    return (helpers.adjacency(g.n, input_edges), input_edges,
            helpers.adjacency(hg.n, coarse_edges), coarse_edges, coarse_of)


def assert_checks_match_reference(g, h, k, work, **kwargs):
    """The edge-bounds and distortion sections of an evidence run equal
    helpers' per-source loops and dict walk exactly."""
    adj, input_edges, coarse_adj, coarse_edges, coarse_of = reference_graphs(g, h)
    report = verify_reduction(g, h, k, evidence=True, **kwargs)
    edges = report.edge_bounds
    records, spans = helpers.edge_bounds_reference(adj, h.centroids.tolist(),
                                                   coarse_adj, k)
    contraction = helpers.contraction_violations_reference(
        input_edges, coarse_of, h.centroids.tolist(), coarse_edges)
    assert (list(map(tuple, edges.per_coarse_edge.tolist())), violations(edges)) == \
        (records, spans + contraction)
    pairs = report.distortion
    records, far = helpers.distortion_reference(adj, coarse_adj, coarse_of, k, work)
    radius = helpers.radius_reference(adj, h.assignment.tolist(), k)
    assert (list(map(tuple, pairs.per_pair_sample.tolist())), violations(pairs)) == \
        (records, far + radius)


def assert_pair_search_matches_reference(g, h, k, pairs):
    """The pair searches over explicit `pairs` equal helpers' per-source
    loop over them, grouped by source."""
    adj, _, coarse_adj, _, coarse_of = reference_graphs(g, h)
    report = pair_search(g, h, k, pairs)
    assert (list(map(tuple, report.per_pair_sample.tolist())), violations(report)) == \
        helpers.distortion_reference(adj, coarse_adj, coarse_of, k,
                                     helpers.pair_work(g.n, pairs))


def fabricated(g, seed):
    """Random centroids, a random assignment onto them, random coarse edges."""
    rng = helpers.make_rng("fabricated", seed)
    centroids = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
    assignment = np.array([rng.choice(centroids) for _ in range(g.n)])
    nc = len(centroids)
    coarse = build(helpers.random_edges(rng, nc, 0.3), n=nc)
    return CoarsenedGraph.from_graph(coarse, centroids=np.array(centroids),
                                     assignment=assignment)


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
        assert_pair_search_matches_reference(g, h, k, pairs)


def sampled_work(n, sample_pairs, seed):
    """The pair searches' seeded draws for graphs above the exhaustive limit:
    the first draws mod n are the sources, the rest their targets in turn."""
    group = max(1, math.isqrt(sample_pairs))
    n_sources = max(1, sample_pairs // group)
    draws = [x % n for x in helpers.splitmix64(seed, n_sources * (group + 1))]
    return [(u, draws[n_sources + i * group:n_sources + (i + 1) * group])
            for i, u in enumerate(draws[:n_sources])]


def test_checks_match_reference_around_the_exhaustive_limit():
    for n in (500, 501):
        rng = helpers.make_rng("limit", n)
        g = build(helpers.random_edges(rng, n, 3 / n), n=n)
        work = (helpers.pair_work(n) if n <= 500 else sampled_work(n, 300, 4))
        h, _, _ = coarsen_pipeline(g, 1, ranking="kdeg")
        assert_checks_match_reference(g, h, 1, work, sample_pairs=300, seed=4)
        assert_checks_match_reference(g, fabricated(g, n), 2, work,
                                      sample_pairs=300, seed=4)


@given(seed=st.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64])
       | st.integers(0, 2**70),
       n=st.integers(1, 10**9), count=st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_sample_draws_match_pure_python_splitmix64(seed, n, count):
    draws = kcoarsen.verify._draws(seed, count, n)
    assert draws.dtype == np.int64
    assert draws.tolist() == [x % n for x in helpers.splitmix64(seed, count)]


def test_splitmix64_oracle_matches_published_outputs():
    assert helpers.splitmix64(0, 4) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                        0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_sample_draws_spread_evenly_over_residues():
    counts = np.bincount(kcoarsen.verify._draws(0, 100_000, 10), minlength=10)
    assert np.all(np.abs(counts - 10_000) <= 500), counts


def test_sampled_distortion_takes_seeds_mod_2_64_and_rejects_negative_ones():
    g = build(helpers.path_edges(501))
    h, _, _ = coarsen_pipeline(g, 1, ranking="id")
    report = distortion_section(g, h, 1, seed=2**64)
    assert report.passed
    assert np.array_equal(distortion_section(g, h, 1, seed=np.int64(0)).per_pair_sample,
                          report.per_pair_sample)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        verify_reduction(g, h, 1, seed=-1)


def searched_depths(monkeypatch, **kwargs):
    """The max_depth of each pair search that verify_reduction makes on a
    valid k = 2 coarsening of the 30x30 grid, and its report."""
    g = build(helpers.grid_edges(30, 30))
    h, _, res = coarsen_pipeline(g, 2, ranking="kdeg")
    depths = []
    real = kcoarsen.verify.bfs

    def counted(*args, **kw):
        depths.append(kw.get("max_depth"))
        return real(*args, **kw)

    monkeypatch.setattr(kcoarsen.verify, "bfs", counted)
    report = verify_reduction(g, h, 2, selected=res.selected, **kwargs)
    assert report.passed
    return depths, report


def test_only_verify_reduction_takes_evidence():
    """Each check takes the graphs, k where it needs it and edge_agg; the
    pair-sample options and the evidence switch are verify_reduction's."""
    signatures = {name: list(inspect.signature(getattr(kcoarsen.verify, name)).parameters)
                  for name in kcoarsen.verify.__all__ if name.startswith("check_")}
    assert signatures == {"check_edge_bounds": ["g", "h", "edge_agg"],
                          "check_distortion": ["g", "h", "k"],
                          "check_components": ["g", "h"],
                          "check_kmis_validity": ["g", "k", "selected"]}
    evidence = inspect.signature(verify_reduction).parameters["evidence"]
    assert evidence.default is False and evidence.kind is evidence.KEYWORD_ONLY


def test_verify_makes_one_search_per_distance_question(monkeypatch):
    # edge bounds, distortion on g and on the coarse graph, then the radius;
    # a valid selection needs no search to name independence pairs
    assert searched_depths(monkeypatch, evidence=True)[0] == [6, None, None, 2]


def test_certificate_makes_the_radius_search_alone(monkeypatch):
    depths, report = searched_depths(monkeypatch)
    assert depths == [2]
    assert report.edge_bounds.per_coarse_edge.shape == (0, 3)
    assert report.distortion.per_pair_sample.shape == (0, 4)


@pytest.mark.parametrize("evidence", [False, True])
def test_verify_maps_the_clusters_once(monkeypatch, evidence):
    """One verify_reduction locates the nodes' centroids among h's
    centroids once, for all the checks that read the cluster map."""
    g = build(helpers.grid_edges(6, 6))
    h, _, _ = coarsen_pipeline(g, 1, ranking="kdeg")
    searches, real = [], np.searchsorted

    def counted(a, v, *args, **kwargs):
        searches.append(a is h.centroids and v is h.assignment)
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    assert verify_reduction(g, h, 1, evidence=evidence).passed
    assert sum(searches) == 1


# the violation kinds that only the pair searches of evidence=True find
EVIDENCE_KINDS = {"edge_bound", "distortion_lower", "distortion_upper"}


def component_count(adj):
    """Connected components of a dict-of-sets adjacency, by BFS."""
    seen, count = set(), 0
    for v in adj:
        if v not in seen:
            seen |= set(helpers.bfs_dists(adj, v))
            count += 1
    return count


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_certificate_verdict_matches_the_evidence_and_the_oracles(data):
    """On a coarsening of a small graph, unedited or with one assignment
    target moved or one coarse edge dropped or added: the default run
    reaches the evidence run's verdict, its violations are the evidence
    run's without the pair-search kinds, and a pass means the BFS oracles
    find every span, pair and component count within its bound."""
    n = data.draw(st.integers(1, 12))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    k = data.draw(st.sampled_from([0, 1, 2]))
    g = build(edges, n=n)
    rank = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    h, assignment, res = coarsen_pipeline(g, k, ranking=rank)
    keys = h.keys
    weights = np.ones(keys.size) if h.weights is None else h.weights
    assignment = assignment.copy()
    nc = h.centroids.size
    edit = data.draw(st.sampled_from(["none", "move", "drop", "add"]))
    if edit == "move" and n > 1:
        u = data.draw(st.integers(0, n - 1))
        assignment[u] = data.draw(st.sampled_from(
            [v for v in range(n) if v != assignment[u]]))
    elif edit == "drop" and keys.size:
        at = data.draw(st.integers(0, keys.size - 1))
        keys, weights = np.delete(keys, at), np.delete(weights, at)
    elif edit == "add":
        taken = set(keys.tolist())
        fresh = [i * nc + j for i in range(nc) for j in range(i + 1, nc)
                 if i * nc + j not in taken]
        if fresh:
            key = data.draw(st.sampled_from(fresh))
            at = np.searchsorted(keys, key)
            keys, weights = np.insert(keys, at, key), np.insert(weights, at, 1.0)
    h = CoarsenedGraph(keys=keys, weights=weights, centroids=h.centroids,
                       assignment=assignment)

    certified = verify_reduction(g, h, k, selected=res.selected)
    full = verify_reduction(g, h, k, selected=res.selected, evidence=True)
    assert certified.passed == full.passed
    # by repr: an assignment_target's bound is nan
    assert [repr(pair) for pair in certified.all_violations()] == [
        repr((section, v)) for section, v in full.all_violations()
        if v.kind not in EVIDENCE_KINDS]
    if not certified.passed:
        return
    adj = helpers.adjacency(n, list(zip(*(a.tolist() for a in g.edge_list()[:2]))))
    coarse_adj = helpers.adjacency(nc, [divmod(key, nc) for key in keys.tolist()])
    _, spans = helpers.edge_bounds_reference(adj, h.centroids.tolist(),
                                             coarse_adj, k)
    assert spans == []
    coarse_of = np.searchsorted(h.centroids, assignment).tolist()
    _, far = helpers.distortion_reference(adj, coarse_adj, coarse_of, k,
                                          helpers.pair_work(n))
    assert far == []
    assert component_count(adj) == component_count(coarse_adj)


def test_distortion_flags_merged_far_pair():
    # nodes 0 and 4 forced into one cluster: dh = 0 but dg = 4 > 2k
    g = build(helpers.path_edges(5))
    h = CoarsenedGraph.from_graph(build([], n=1), centroids=np.array([0]),
                                  assignment=np.array([0, 0, 0, 0, 0]))
    report = pair_search(g, h, 1, [(0, 4)])
    assert not report.passed
    assert report.violations[0].kind == "distortion_upper"
    # the radius check names the nodes beyond k hops, not the pair
    assert [v.nodes for v in check_distortion(g, h, 1).violations] == [
        (2, 0), (3, 0), (4, 0)]


def test_distortion_flags_lower_bound_break():
    # identity partition but a coarse graph missing the only edge:
    # dh = unreachable while dg = 1 breaks dh <= dg
    g = build([(0, 1)])
    h = CoarsenedGraph.from_graph(build([], n=2), centroids=np.array([0, 1]),
                                  assignment=np.array([0, 1]))
    report = pair_search(g, h, 1, [(0, 1)])
    assert not report.passed
    assert report.violations[0].kind == "distortion_lower"


def test_distortion_skips_cross_component_pairs():
    g = build([(0, 1), (2, 3)])
    h, _, res = coarsen_pipeline(g, 1, ranking="id")
    report = pair_search(g, h, 1, [(0, 2)])
    assert report.passed and check_distortion(g, h, 1).passed
    assert report.per_pair_sample.size == 0


def test_distortion_sampling_is_seeded():
    g = build(helpers.king_grid_edges(8, 8))
    h, _, res = coarsen_pipeline(g, 1, ranking="id")
    a = distortion_section(g, h, 1, sample_pairs=40, seed=5)
    b = distortion_section(g, h, 1, sample_pairs=40, seed=5)
    assert np.array_equal(a.per_pair_sample, b.per_pair_sample)


def test_components_preserved():
    g = build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    h, _, res = coarsen_pipeline(g, 1, ranking="id")
    report = check_components(g, h)
    assert report.passed
    assert (report.graph_components, report.coarse_components) == (2, 2)


def test_components_detect_cross_component_merge():
    g = build([(0, 1), (2, 3)])
    h = CoarsenedGraph.from_graph(build([], n=1), centroids=np.array([0]),
                                  assignment=np.array([0, 0, 0, 0]))
    report = check_components(g, h)
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "component_split" in kinds or "component_count" in kinds


def test_validity_accepts_real_result():
    g = build(helpers.path_edges(5))
    res = k_mis(g, 1, resolve_ranking(g, "id"))
    assert check_kmis_validity(g, 1, res.selected).passed


def test_validity_flags_adjacent_selection():
    g = build(helpers.path_edges(5))
    report = check_kmis_validity(g, 1, np.array([0, 1, 3]))
    kinds = [v.kind for v in report.violations]
    assert "independence" in kinds


def test_validity_takes_the_selection_as_given():
    """A list of ids works; a float selection that an int64 cast would
    truncate to the valid [0, 2, 4] is refused by numpy's indexing."""
    g = build(helpers.path_edges(5))
    assert check_kmis_validity(g, 1, [0, 2, 4]).passed
    assert verify_reduction(g, coarsen_pipeline(g, 1, ranking="id")[0], 1,
                            selected=[0, 2, 4]).passed
    with pytest.raises(IndexError):
        check_kmis_validity(g, 1, np.array([0.4, 2.2, 4.9]))


def test_validity_flags_uncovered_node():
    g = build(helpers.path_edges(7))
    report = check_kmis_validity(g, 1, np.array([0]))
    kinds = [v.kind for v in report.violations]
    assert "maximality" in kinds


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validity_matches_bfs_oracle(data):
    n = data.draw(st.integers(1, 12))
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    selected = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    k = data.draw(st.integers(1, 5))  # k >= n on the smallest graphs
    g = build(edges, n=n)
    report = check_kmis_validity(g, k, np.array(selected, dtype=np.int64))
    got = [(v.kind, v.nodes, v.observed, v.bound) for v in report.violations]
    assert got == helpers.validity_reference(n, edges, selected, k)


def test_verify_reduction_green_path(small_corpus):
    for g, edges, n in small_corpus[:5]:
        h, _, res = coarsen_pipeline(g, 2, ranking="random", seed=n)
        report = verify_reduction(g, h, 2, selected=res.selected)
        assert report.passed
        assert report.all_violations() == []


def test_node_assigned_to_a_far_centroid_breaks_the_radius():
    # on the 12-node path under kdeg, centroid 2 is pointed at centroid 0,
    # 2 hops away; every pair bound still holds, the radius does not
    g = build(helpers.path_edges(12))
    h, assignment, res = coarsen_pipeline(g, 1, ranking="kdeg")
    assignment = assignment.copy()
    assert assignment[2] == 2 and 0 in h.centroids
    assignment[2] = 0
    far = CoarsenedGraph.from_graph(h.graph, centroids=h.centroids,
                                    assignment=assignment)
    report = verify_reduction(g, far, 1, selected=res.selected)
    assert violations(report.distortion) == [("radius", (2, 0), math.inf, 1.0)]
    assert [section for section, _ in report.all_violations()] == ["distortion"]


def test_verify_reduction_reports_a_selection_other_than_the_centroids():
    # on the 5-node path at k = 2, ids pick {0, 3} and reversed ids {1, 4}:
    # both are valid, so only the selection check can object
    g = build(helpers.path_edges(5))
    h, _, res = coarsen_pipeline(g, 2, ranking="id")
    other = k_mis(g, 2, np.arange(5)[::-1].copy())
    assert res.selected.tolist() == [0, 3] and other.selected.tolist() == [1, 4]
    assert check_kmis_validity(g, 2, other.selected).passed
    assert verify_reduction(g, h, 2, selected=res.selected).passed
    report = verify_reduction(g, h, 2, selected=other.selected)
    assert [section for section, _ in report.all_violations()] == ["validity"] * 4
    assert violations(report.validity) == [
        ("selection", (0,), 0.0, 1.0), ("selection", (1,), 1.0, 0.0),
        ("selection", (3,), 0.0, 1.0), ("selection", (4,), 1.0, 0.0)]


def test_verify_reduction_default_result_uses_centroids():
    g, h, res = coarsened_path()
    report = verify_reduction(g, h, 1)
    assert report.passed


def test_a_broken_cluster_map_is_reported_once():
    """Node 2 of a path 0-4, assigned to the non-centroid 1, is named by
    the distortion section alone."""
    g = build(helpers.path_edges(5))
    h, assignment, result = coarsen_pipeline(g, 1, ranking="id")
    assignment = assignment.copy()
    assignment[2] = 1
    broken = CoarsenedGraph(keys=h.keys.copy(), weights=h.weights,
                            centroids=h.centroids, assignment=assignment)
    report = verify_reduction(g, broken, 1, selected=result.selected)
    targets = [(section, v.nodes) for section, v in report.all_violations()
               if v.kind == "assignment_target"]
    assert targets == [("distortion", (2, 1))]


def test_report_round_trip_lossless():
    g, h, res = coarsened_path(9, 2)
    report = verify_reduction(g, h, 2, selected=res.selected)
    text = report.to_text()
    back = VerificationReport.from_text(text)
    assert back.to_text() == text
    assert back.passed == report.passed
    assert back.k == report.k


def test_report_round_trip_with_violations():
    g = build(helpers.path_edges(5))
    h = CoarsenedGraph.from_graph(build([(0, 1)]), centroids=np.array([0, 3]),
                                  assignment=np.array([0, 0, 0, 3, 3]))
    report = verify_reduction(g, h, 1, selected=np.array([0, 1, 3]))
    assert not report.passed
    back = VerificationReport.from_text(report.to_text())
    assert back.to_text() == report.to_text()
    assert not back.passed
    assert [v.kind for _, v in back.all_violations()] == [
        v.kind for _, v in report.all_violations()
    ]


# the violation kinds each report section records
SECTION_KINDS = {
    "edge_bounds": ["edge_bound", "missing_coarse_edge", "extra_coarse_edge"],
    "distortion": ["assignment_target", "distortion_lower", "distortion_upper"],
    "components": ["component_count", "component_split"],
    "validity": ["independence", "maximality"],
}


@st.composite
def reports(draw):
    """Reports with any evidence rows, empty ones included, and violations
    holding inf, nan, signed zeros and empty node tuples."""
    int64s = st.integers(-2**63, 2**63 - 1)

    def rows(width):
        drawn = draw(st.lists(st.lists(int64s | st.integers(-3, 3),
                                       min_size=width, max_size=width),
                              max_size=6))
        return np.array(drawn, dtype=np.int64).reshape(len(drawn), width)

    counts = st.integers(0, 2**31)
    sections = {
        "edge_bounds": DistortionReport(per_coarse_edge=rows(3)),
        "distortion": DistortionReport(per_pair_sample=rows(4)),
        "components": ComponentReport(graph_components=draw(counts),
                                      coarse_components=draw(counts)),
        "validity": ValidityReport(selected_count=draw(counts)),
    }
    for name, section in sections.items():
        for _ in range(draw(st.integers(0, 3))):
            section.violations.append(Violation(
                kind=draw(st.sampled_from(SECTION_KINDS[name])),
                nodes=tuple(draw(st.lists(int64s, max_size=3))),
                observed=draw(st.floats()), bound=draw(st.floats())))
    return VerificationReport(k=draw(st.integers(0, 50)), **sections)


@given(reports())
@settings(max_examples=150, deadline=None)
def test_report_text_round_trip_property(report):
    text = report.to_text()
    back = VerificationReport.from_text(text)
    assert back.to_text() == text  # nan != nan, so compare by text
    assert back.k == report.k and back.passed == report.passed
    for got, want in ((back.edge_bounds.per_coarse_edge,
                       report.edge_bounds.per_coarse_edge),
                      (back.distortion.per_pair_sample,
                       report.distortion.per_pair_sample)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert [(s, v.kind, v.nodes) for s, v in back.all_violations()] == [
        (s, v.kind, v.nodes) for s, v in report.all_violations()]


def test_report_evidence_is_int64_rows():
    g, h, res = coarsened_path(9, 2)
    report = verify_reduction(g, h, 2, selected=res.selected, evidence=True)
    back = VerificationReport.from_text(report.to_text())
    for r in (report, back):
        assert r.edge_bounds.per_coarse_edge.dtype == np.int64
        assert r.edge_bounds.per_coarse_edge.shape == (2, 3)
        assert r.distortion.per_pair_sample.dtype == np.int64
        assert r.distortion.per_pair_sample.shape == (36, 4)
    assert np.array_equal(back.edge_bounds.per_coarse_edge,
                          report.edge_bounds.per_coarse_edge)
    assert np.array_equal(back.distortion.per_pair_sample,
                          report.distortion.per_pair_sample)


def test_report_text_skips_blank_lines_and_needs_a_section_first():
    g, h, res = coarsened_path()
    text = verify_reduction(g, h, 1, evidence=True).to_text()
    assert VerificationReport.from_text(text.replace("\n", "\n\n  \n")).to_text() == text
    with pytest.raises(ValueError, match="report line outside any section: 'k,1'"):
        VerificationReport.from_text("k,1\n" + text)


def test_report_text_sections():
    g, h, res = coarsened_path()
    text = verify_reduction(g, h, 1).to_text()
    for section in ("[meta]", "[edge_bounds]", "[pairs]", "[components]",
                    "[validity]", "[violations]"):
        assert section in text
