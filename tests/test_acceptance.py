"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
The two dataset-backed tests download Brightkite and Luxembourg into
datasets/ on first use and skip cleanly when the network is unreachable.
"""

import gzip
import tarfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from kcoarsen import (
    Ranking,
    build,
    coarsen_pipeline,
    k_mis,
    load,
    resolve_ranking,
    verify_reduction,
)
from kcoarsen.graph import NodeWeights, power
from kcoarsen.oracle import compare, exact_mwis
from kcoarsen.ranking import walk_counts
from kcoarsen.verify import check_kmis_validity

from . import helpers

REL_SLACK = 1e-9
DATASETS = Path(__file__).resolve().parent.parent / "datasets"

BRIGHTKITE_URL = "https://snap.stanford.edu/data/loc-brightkite_edges.txt.gz"
LUXEMBOURG_URL = (
    "https://suitesparse-collection-website.herokuapp.com/MM/DIMACS10/"
    "luxembourg_osm.tar.gz"
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _fetch(url: str, dest: Path) -> None:
    with urllib.request.urlopen(url, timeout=30) as resp:
        data = resp.read()
    dest.write_bytes(data)


def _dataset(name: str):
    """Load a benchmark graph from datasets/, downloading on first use.

    Returns None when the file is absent and the download fails; callers
    skip in that case.
    """
    DATASETS.mkdir(exist_ok=True)
    if name == "brightkite":
        edgelist = DATASETS / "brightkite.edgelist"
        if not edgelist.exists():
            archive = DATASETS / "loc-brightkite_edges.txt.gz"
            try:
                if not archive.exists():
                    _fetch(BRIGHTKITE_URL, archive)
                edgelist.write_bytes(gzip.decompress(archive.read_bytes()))
            except (urllib.error.URLError, OSError):
                return None
        g, _ = load(edgelist)
        return g
    if name == "luxembourg":
        mtx = DATASETS / "luxembourg_osm.mtx"
        if not mtx.exists():
            archive = DATASETS / "luxembourg_osm.tar.gz"
            try:
                if not archive.exists():
                    _fetch(LUXEMBOURG_URL, archive)
                with tarfile.open(archive) as tar:
                    member = tar.extractfile("luxembourg_osm/luxembourg_osm.mtx")
                    mtx.write_bytes(member.read())
            except (urllib.error.URLError, OSError, KeyError, tarfile.TarError):
                return None
        g, _ = load(mtx, format="mm")
        return g
    raise ValueError(name)


def _random_rankings(n: int, count: int, tag):
    out = []
    for i in range(count):
        rng = helpers.make_rng("accept-rank", tag, i)
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(Ranking(np.array(perm, dtype=np.int64)))
    return out


def test_criterion_1_oracle_equivalence(corpus):
    """k_mis matches sequential greedy MIS on the explicit power graph."""
    checked = mismatches = 0
    start = time.perf_counter()
    for gi, (g, edges, n) in enumerate(corpus):
        rankings = _random_rankings(n, 5, gi)
        for k in (1, 2, 3, 4):
            u, v, _ = power(g, k).edge_list()
            adj_k = helpers.adjacency(n, zip(u.tolist(), v.tolist()))
            for ranking in rankings:
                ours = k_mis(g, k, ranking).selected.tolist()
                ref = helpers.sequential_kmis(adj_k, n, 1, ranking.rank.tolist())
                checked += 1
                if ours != ref:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    verdict(
        "criterion 1 (oracle equivalence)", ok,
        f"{checked} selections compared, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_validity(corpus, fixture_graphs):
    """Pairwise distance > k inside S; every node within k of S."""
    instances = list(corpus) + list(fixture_graphs.values())
    violations = checked = 0
    for gi, (g, edges, n) in enumerate(instances):
        for k in (1, 2, 3, 4):
            ranking = _random_rankings(n, 1, ("validity", gi, k))[0]
            result = k_mis(g, k, ranking)
            report = check_kmis_validity(g, k, result)
            checked += 1
            violations += len(report.violations)
    ok = violations == 0
    verdict(
        "criterion 2 (validity)", ok,
        f"{checked} selections on {len(instances)} graphs, "
        f"{violations} violations",
    )
    assert ok


def test_criterion_3_determinism_and_relabeling(corpus, split_every_row):
    """Worker count never changes output; relabeling commutes with it."""
    mismatches = 0
    for gi, (g, edges, n) in enumerate(corpus[:50]):
        ranking = _random_rankings(n, 1, ("det", gi))[0]
        for k in (1, 2):
            base_h, base_part, base_res = coarsen_pipeline(
                g, k, ranking=ranking, workers=1)
            for workers in (2, 8):
                h, part, res = coarsen_pipeline(
                    g, k, ranking=ranking, workers=workers)
                if not (
                    np.array_equal(res.selected, base_res.selected)
                    and np.array_equal(part.assignment, base_part.assignment)
                    and h.graph == base_h.graph
                ):
                    mismatches += 1

            rng = helpers.make_rng("accept-sigma", gi, k)
            sigma = list(range(n))
            rng.shuffle(sigma)
            relabeled = build(
                [(sigma[u], sigma[v]) for u, v in edges], n=n)
            inverse = np.argsort(np.array(sigma))
            new_rank = Ranking(ranking.rank[inverse])
            sel_new = k_mis(relabeled, k, new_rank).selected
            expected = np.sort(np.array([sigma[v] for v in base_res.selected]))
            if not np.array_equal(sel_new, expected):
                mismatches += 1
    ok = mismatches == 0
    verdict(
        "criterion 3 (determinism + relabeling)", ok,
        f"50 instances x k in (1,2), workers 1/2/8, {mismatches} mismatches",
    )
    assert ok


def test_criterion_4_weight_bounds():
    """Selected weight dominates the score sums and alpha / delta_k."""
    bound_failures = 0

    for trial in range(500):
        rng = helpers.make_rng("thm-bounds", trial)
        n = rng.randrange(5, 51)
        g = build(helpers.random_edges(rng, n, (0.05, 0.2, 0.5)[trial % 3]),
                  n=n)
        k = 1 + trial % 3
        x = NodeWeights.uniform(n, 1.0, 100.0, seed=trial).values

        walk_ones = walk_counts(g, np.ones(n), k)
        degree_scores = x / walk_ones
        selected = k_mis(g, k, resolve_ranking(g, "kdeg", k=k, weights=x)).selected
        lhs = x[selected].sum()
        if lhs < degree_scores.sum() * (1 - REL_SLACK):
            bound_failures += 1

        walk_x = walk_counts(g, x, k)
        weight_scores = x / walk_x
        selected = k_mis(g, k, resolve_ranking(g, "kweight", k=k, weights=x)).selected
        lhs = x[selected].sum()
        if lhs < (weight_scores * x).sum() * (1 - REL_SLACK):
            bound_failures += 1

    ratio_failures = 0
    for trial in range(200):
        rng = helpers.make_rng("thm-ratio", trial)
        n = rng.randrange(5, 21)
        g = build(helpers.random_edges(rng, n, (0.1, 0.3, 0.5)[trial % 3]),
                  n=n)
        k = 1 + trial % 3
        x = NodeWeights.uniform(n, 1.0, 100.0, seed=1000 + trial).values
        gk = power(g, k)
        _, alpha = exact_mwis(gk, x)
        delta_k = walk_counts(g, np.ones(n), k).max()
        for spec in ("kdeg", "kweight"):
            rank = resolve_ranking(g, spec, k=k, weights=x)
            selected = k_mis(g, k, rank).selected
            if x[selected].sum() < alpha / delta_k * (1 - REL_SLACK):
                ratio_failures += 1

    ok = bound_failures == 0 and ratio_failures == 0
    verdict(
        "criterion 4 (weight bounds)", ok,
        f"500 score-sum instances ({bound_failures} failures), "
        f"200 exact-ratio instances ({ratio_failures} failures)",
    )
    assert ok


def test_criterion_5_distortion_and_components(corpus, fixture_graphs):
    """Edge spans, pair distortion, and component counts all within bounds."""
    instances = list(corpus) + list(fixture_graphs.values())
    violations = runs = 0
    for gi, (g, edges, n) in enumerate(instances):
        for k in (1, 2):
            h, part, res = coarsen_pipeline(g, k, ranking="random", seed=gi)
            report = verify_reduction(g, h, k, result=res)
            runs += 1
            violations += len(report.all_violations())
    ok = violations == 0
    verdict(
        "criterion 5 (distortion + components)", ok,
        f"{runs} verified reductions, {violations} violations "
        f"(pairs exhaustive at these sizes)",
    )
    assert ok


def test_criterion_6_desk_scale_weights():
    """Mean selected weights near published values; ranked close to greedy."""
    brightkite = _dataset("brightkite")
    luxembourg = _dataset("luxembourg")
    if brightkite is None or luxembourg is None:
        print("\nSKIP criterion 6 (desk-scale weights): datasets unreachable")
        pytest.skip("benchmark datasets unavailable")

    targets = [
        ("brightkite", brightkite, 1, "weight_rule", 1_932_378.2),
        ("luxembourg", luxembourg, 3, "degree_rule", 1_717_789.7),
    ]
    lines = []
    ok = True
    for name, g, k, rule, published in targets:
        report = compare(g, k, rule, trials=10, weight_low=1.0,
                         weight_high=100.0, seed=0,
                         oracle_cap=max(200_000, g.n + 1))
        rel = abs(report.ours_weight - published) / published
        ratio = report.ours_weight / report.greedy_weight
        good = rel <= 0.02 and 0.97 <= ratio <= 1.01
        ok = ok and good and not report.bound_violations
        lines.append(
            f"{name} k={k} {rule}: ours={report.ours_weight:.1f} "
            f"target={published} rel={rel:.4f} ours/greedy={ratio:.4f}"
        )
    verdict("criterion 6 (desk-scale weights)", ok, "; ".join(lines))
    assert ok


def test_criterion_7_runtime_shape():
    """Wall time grows at most ~linearly in k; saturates on small worlds."""
    luxembourg = _dataset("luxembourg")
    brightkite = _dataset("brightkite")
    if luxembourg is None or brightkite is None:
        print("\nSKIP criterion 7 (runtime shape): datasets unreachable")
        pytest.skip("benchmark datasets unavailable")

    def pipeline_time(g, k):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            coarsen_pipeline(g, k, ranking="kdeg")
            best = min(best, time.perf_counter() - start)
        return best

    lux_times = {k: pipeline_time(luxembourg, k) for k in (1, 2, 4, 8)}
    linear_ok = all(lux_times[k] <= 2.0 * k * lux_times[1] for k in (2, 4, 8))
    bk4 = pipeline_time(brightkite, 4)
    bk8 = pipeline_time(brightkite, 8)
    saturation_ok = bk8 <= bk4 * 1.1  # small slack for timer noise
    ok = linear_ok and saturation_ok
    verdict(
        "criterion 7 (runtime shape)", ok,
        f"luxembourg t(k)={ {k: round(t, 3) for k, t in lux_times.items()} } "
        f"brightkite t(4)={bk4:.3f}s t(8)={bk8:.3f}s",
    )
    assert ok


def test_criterion_8_grid_pooling():
    """k=1 on an 8-connected grid reproduces 2x2 average-pool geometry."""
    rows = cols = 28
    g = build(helpers.king_grid_edges(rows, cols))
    ranking = resolve_ranking(g, "id")
    h, part, res = coarsen_pipeline(g, 1, ranking=ranking)

    fibers = helpers.fibers(part.assignment)
    bad = 0
    interior = 0
    for centroid, members in fibers.items():
        r, c = divmod(int(centroid), cols)
        cells = {divmod(int(v), cols) for v in members.tolist()}
        touches_boundary = any(
            rr in (0, rows - 1) or cc in (0, cols - 1) for rr, cc in cells
        )
        if touches_boundary:
            continue
        interior += 1
        expected = {(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)}
        if cells != expected:
            bad += 1
    ok = bad == 0 and interior > 0
    verdict(
        "criterion 8 (grid pooling)", ok,
        f"{len(fibers)} clusters, {interior} interior, "
        f"{bad} not exact 2x2 blocks",
    )
    assert ok
