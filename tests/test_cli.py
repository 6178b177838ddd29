"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kcoarsen.cli
import kcoarsen.coarsen
import kcoarsen.graph
from kcoarsen import VerificationReport, build, coarsen_pipeline, load
from kcoarsen.cli import (RunConfig, _id_columns, _read_artifacts,
                          _write_coarsen_artifacts, main)

from . import helpers


def write_path5(tmp_path, name="path5.edgelist"):
    p = tmp_path / name
    p.write_text("".join(f"{u} {v}\n" for u, v in helpers.path_edges(5)))
    return p


def run(argv):
    return main([str(a) for a in argv])


def test_centroids_file_carries_node_values(tmp_path):
    # the CLI passes no node weights; the library path still writes them
    g = build(helpers.path_edges(5))
    h, _, _ = coarsen_pipeline(g, 1, ranking="id", node_agg="sum",
                               weights=[1.0, 0.1, 0.2, 4.0, 1 / 3])
    config = RunConfig(command="coarsen", input="in", format="edgelist")
    _write_coarsen_artifacts(tmp_path, config, np.arange(5) * 10, h)
    lines = (tmp_path / "centroids.txt").read_text().splitlines()
    assert lines[1] == "# coarse_index centroid_id node_value"
    assert lines[2:] == [f"{i} {10 * c} {x!r}" for i, (c, x) in
                         enumerate(zip(h.centroids.tolist(), h.node_values.tolist()))]


def test_coarsen_writes_artifacts(tmp_path, capsys):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out]) == 0
    for name in ("coarse.edgelist", "assignment.txt", "centroids.txt",
                 "node_ids.txt", "run_config.json"):
        assert (out / name).exists()
    stats = capsys.readouterr().out
    assert "n=5 m=4 coarse_n=3 coarse_m=2 selected=3" in stats
    assert re.search(r"t_rank=\S+ t_select=\S+ t_cluster=\S+ t_reduce=", stats)
    assert re.search(r" t_load=[0-9.]+s t_rank=.* t_reduce=[0-9.]+s t_write=[0-9.]+s$",
                     stats.strip())

    pairs = [tuple(map(int, line.split()[:2]))
             for line in (out / "assignment.txt").read_text().splitlines()
             if line and line[0] not in "#%"]
    assert pairs == [(0, 0), (1, 0), (2, 2), (3, 2), (4, 4)]

    config = json.loads((out / "run_config.json").read_text())
    assert config["command"] == "coarsen"
    assert config["k"] == 1 and config["rank"] == "id"


def test_coarsen_preserves_original_ids(tmp_path):
    inp = tmp_path / "g.edgelist"
    inp.write_text("10 20\n20 30\n")
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out]) == 0
    text = (out / "assignment.txt").read_text()
    rows = [tuple(map(int, line.split()))
            for line in text.splitlines() if line and line[0] not in "#%"]
    assert rows == [(10, 10), (20, 10), (30, 30)]
    ids = (out / "node_ids.txt").read_text()
    assert "0 10" in ids and "2 30" in ids


def test_coarsen_k0_identity(tmp_path):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "0", "-o", out]) == 0
    edges = [line.split() for line in
             (out / "coarse.edgelist").read_text().splitlines()
             if line and line[0] not in "#%"]
    assert [(e[0], e[1]) for e in edges] == [
        ("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")]


def test_coarsen_rerun_is_byte_identical(tmp_path):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    names = ("coarse.edgelist", "assignment.txt", "centroids.txt",
             "node_ids.txt", "run_config.json")
    assert run(["coarsen", "-i", inp, "-k", "2", "--rank", "random",
                "--seed", "9", "-o", out]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert run(["coarsen", "-i", inp, "-k", "2", "--rank", "random",
                "--seed", "9", "-o", out]) == 0
    second = {name: (out / name).read_bytes() for name in names}
    assert first == second


@pytest.mark.parametrize("argv, names", [
    (["coarsen", "-k", 1, "--rank", "id"],
     ("coarse.edgelist", "assignment.txt", "centroids.txt", "node_ids.txt",
      "run_config.json")),
    (["verify", "-k", 1, "--rank", "id"], ("report.txt",)),
    (["bench", "--k-list", 1, "--trials", 1, "--compare-greedy"],
     ("bench.csv", "compare.csv")),
])
def test_outputs_replace_existing_files(tmp_path, monkeypatch, capsys, argv, names):
    """Each output is a new file: a hard link or a symlink at its path is
    replaced and its target keeps its bytes.  The outputs equal those of
    a run into a fresh directory, and a directory at an output path is
    one `error:` line and exit 2."""
    for module in (kcoarsen.cli, kcoarsen.coarsen):  # bench.csv's timings
        monkeypatch.setattr(module, "perf_counter", lambda: 0.0)
    inp = write_path5(tmp_path)
    argv = [*argv, "-i", inp, "-o", "out"]  # the same config line in every cwd
    sentinels = tmp_path / "sentinels"
    sentinels.mkdir()
    for name in names:
        (sentinels / name).write_bytes(f"sentinel {name}\n".encode())
    for cwd in ("fresh", "linked", "blocked"):
        (tmp_path / cwd / "out").mkdir(parents=True)
    for name in names[1:]:
        os.link(sentinels / name, tmp_path / "linked" / "out" / name)
    (tmp_path / "linked" / "out" / names[0]).symlink_to(sentinels / names[0])
    outputs = {}
    for cwd in ("fresh", "linked"):
        monkeypatch.chdir(tmp_path / cwd)
        assert run(argv) == 0
        outputs[cwd] = {name: (tmp_path / cwd / "out" / name).read_bytes()
                        for name in names}
    for name in names:
        assert (sentinels / name).read_bytes() == f"sentinel {name}\n".encode()
    assert outputs["linked"] == outputs["fresh"]
    assert not (tmp_path / "linked" / "out" / names[0]).is_symlink()

    (tmp_path / "blocked" / "out" / names[-1]).mkdir()
    monkeypatch.chdir(tmp_path / "blocked")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names[-1] in err[0]


def test_coarsen_score_file_ranking(tmp_path):
    inp = write_path5(tmp_path)
    scores = tmp_path / "scores.txt"
    scores.write_text("0\n10\n0\n10\n0\n")  # favor nodes 1 and 3
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1",
                "--rank", f"file:{scores}", "-o", out]) == 0
    centroid_rows = (out / "centroids.txt").read_text().splitlines()
    picked = sorted(int(r.split()[1]) for r in centroid_rows
                    if r and r[0] not in "#%")
    assert picked == [1, 3]


def test_verify_fresh_run_passes(tmp_path, capsys):
    inp = write_path5(tmp_path)
    assert run(["verify", "-i", inp, "-k", "1", "--rank", "id"]) == 0
    out = capsys.readouterr().out
    assert "[meta]" in out and "status,pass" in out


def test_verify_writes_report_file(tmp_path):
    inp = write_path5(tmp_path)
    report_dir = tmp_path / "report"
    assert run(["verify", "-i", inp, "-k", "1", "-o", report_dir]) == 0
    assert (report_dir / "report.txt").exists()


def test_verify_artifacts_round_trip(tmp_path):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 0


def test_verify_corrupted_assignment_exits_1(tmp_path, capsys):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    assignment = out / "assignment.txt"
    lines = assignment.read_text().splitlines()
    # point node 4 at the far-away centroid 0 instead of itself
    lines = [("4 0" if line.strip() == "4 4" else line) for line in lines]
    assignment.write_text("\n".join(lines) + "\n")
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 1
    err = capsys.readouterr().err
    assert "violation" in err.lower()


def test_verify_node_far_from_its_centroid_exits_1(tmp_path, capsys):
    inp = tmp_path / "path12.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in helpers.path_edges(12)))
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "kdeg", "-o", out])
    assignment = out / "assignment.txt"
    lines = assignment.read_text().splitlines()
    assert "2 2" in lines and "0 0" in lines
    # centroid 2 now claims centroid 0, two hops away
    assignment.write_text("\n".join("2 0" if line == "2 2" else line
                                    for line in lines) + "\n")
    capsys.readouterr()
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 1
    err = capsys.readouterr().err
    assert "violation [distortion] radius nodes=(2, 0) observed=inf bound=1.0" in err


def _rewrite_rows(path, edit):
    """Apply `edit` to the data rows of an artifact file, keep comments."""
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if line and not line.startswith("#")]
    path.write_text("\n".join(head + edit(rows)) + "\n")


@pytest.mark.parametrize("edit", [
    # rows "0 0", "1 2", "2 4" become "2 0", "1 2", "0 4"
    lambda rows: [f"{len(rows) - 1 - i} {row.split()[1]}"
                  for i, row in enumerate(rows)],
    lambda rows: rows + rows[1:2],
    lambda rows: rows[:1] + ["1"] + rows[2:],
], ids=["reversed_index", "duplicated_row", "short_row"])
def test_verify_malformed_centroids_exits_2(tmp_path, capsys, edit):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    _rewrite_rows(out / "centroids.txt", edit)
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 2
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize("name, edit, message", [
    ("assignment.txt", lambda rows: rows[:1] + ["1 0 x"] + rows[2:],
     "line 4: expected 'u v'"),
    ("assignment.txt", lambda rows: rows[:1] + ["1 0 2.5"] + rows[2:],
     "line 4: expected 'u v'"),
    ("centroids.txt", lambda rows: rows[:1] + ["1 2 x"] + rows[2:], None),
    ("assignment.txt", lambda rows: rows + ["7 0"], "unknown node id 7"),
    ("assignment.txt", lambda rows: rows + ["9 0", "-3 0"], "unknown node id 9"),
    ("assignment.txt", lambda rows: rows + ["99999999999999999999 0"],
     "must fit int64"),
    ("centroids.txt", lambda rows: rows[:1] + ["1 x"] + rows[2:],
     "must be integers"),
    ("centroids.txt", lambda rows: rows + ["3 9"], "unknown node id 9"),
    ("centroids.txt", lambda rows: rows[:1] + rows[2:],
     "coarse indices must run 0..nc-1"),
    ("assignment.txt", lambda rows: rows + ["1 2"],
     "node id 1 is assigned more than once"),
    ("coarse.edgelist", lambda rows: rows + ["1 0 5.0"],
     "coarse edgelist repeats an edge or holds a self-loop"),
    ("coarse.edgelist", lambda rows: rows + ["2 2 1.0"],
     "coarse edgelist repeats an edge or holds a self-loop"),
], ids=["three_columns", "float_column", "centroid_note", "unknown_id",
        "first_unknown_id_in_file_order",
        "beyond_int64", "non_integer",
        "unknown_centroid", "missing_centroid", "repeated_node",
        "repeated_coarse_edge", "coarse_self_loop"])
def test_verify_malformed_artifact_rows(tmp_path, capsys, name, edit, message):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    _rewrite_rows(out / name, edit)
    code = run(["verify", "-i", inp, "-k", "1", "--artifacts", out])
    err = capsys.readouterr().err
    if message is None:  # centroid columns after the second are ignored
        assert code == 0
    else:
        assert code == 2 and err.count("error:") == 1 and message in err


def test_artifact_columns_read_alike_on_both_paths(tmp_path, monkeypatch):
    g = build(helpers.path_edges(5))
    h, assignment, _ = coarsen_pipeline(g, 1, ranking="id", node_agg="sum",
                                        weights=[1.0, 0.1, 0.2, 4.0, 1 / 3])
    config = RunConfig(command="coarsen", input="in", format="edgelist")
    ids = np.array([-(2**62), -5, 0, 7, 2**62])
    _write_coarsen_artifacts(tmp_path, config, ids, h)
    more = {"assignment.txt": False, "centroids.txt": True}
    fast = {name: _id_columns(tmp_path / name, more[name]) for name in more}
    monkeypatch.setattr(kcoarsen.cli, "_fast_edgelist", lambda data: None)
    assert fast["assignment.txt"].tolist() == [
        [v, c] for v, c in zip(ids.tolist(), ids[assignment].tolist())]
    assert fast["centroids.txt"].tolist() == [
        [i, c] for i, c in enumerate(ids[h.centroids].tolist())]
    for name, pairs in fast.items():
        slow = _id_columns(tmp_path / name, more[name])
        assert slow.dtype == pairs.dtype and np.array_equal(slow, pairs)


def test_bench_and_verify_lay_out_the_input_once(tmp_path, monkeypatch):
    """coarsen_pipeline frees a sweep layout it built; bench (for all its
    trials) and verify (for its checks too) build the input's first."""
    laid_out = []
    real = kcoarsen.graph.jagged_layout

    def spy(g):
        laid_out.append(g.n)
        return real(g)

    monkeypatch.setattr(kcoarsen.graph, "jagged_layout", spy)
    inp = tmp_path / "grid.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in helpers.grid_edges(9, 9)))
    assert run(["bench", "-i", inp, "--k-list", "1,2", "--trials", "3",
                "-o", tmp_path / "bench"]) == 0
    assert laid_out == [81]
    laid_out.clear()
    assert run(["verify", "-i", inp, "-k", "2", "--rank", "kdeg"]) == 0
    assert laid_out.count(81) == 1  # the coarse graph's own layout aside


def test_coarsen_and_bench_never_assemble_the_coarse_csr(tmp_path, monkeypatch):
    calls = []
    real = kcoarsen.coarsen._assemble

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kcoarsen.coarsen, "_assemble", spy)
    inp = tmp_path / "grid.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in helpers.grid_edges(9, 9)))
    weighted = tmp_path / "weighted.edgelist"
    weighted.write_text("".join(f"{u} {v} {1 + (u * v) % 7}.5\n"
                                for u, v in helpers.grid_edges(9, 9)))
    for graph in (inp, weighted):
        for k in ("0", "2"):
            assert run(["coarsen", "-i", graph, "-k", k, "--rank", "kdeg",
                        "-o", tmp_path / f"{graph.stem}{k}"]) == 0
    assert run(["bench", "-i", inp, "--k-list", "1,2", "--trials", "1",
                "-o", tmp_path / "bench"]) == 0
    assert calls == []
    # the spy sits where the coarse CSR is built: verify needs that CSR
    assert run(["verify", "-i", inp, "-k", "2", "--rank", "kdeg",
                "--artifacts", tmp_path / "grid2"]) == 0
    assert len(calls) == 1


def grid_artifacts(tmp_path, k):
    """A 40x40 grid, too large for exhaustive pairs, its coarse graph
    in-process and its artifacts; node ids are the dense ids."""
    g = build(helpers.grid_edges(40, 40))
    inp = tmp_path / "grid.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in helpers.grid_edges(40, 40)))
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", k, "--rank", "kdeg", "-o", out]) == 0
    h, _, _ = coarsen_pipeline(g, k, ranking="kdeg")
    return g, h, inp, out


def test_verify_artifacts_reject_a_dropped_coarse_edge_row(tmp_path, capsys):
    g, h, inp, out = grid_artifacts(tmp_path, 2)
    i, j, crossing = h.edge_list()
    _rewrite_rows(out / "coarse.edgelist", lambda rows: rows[:40] + rows[41:])
    capsys.readouterr()
    assert run(["verify", "-i", inp, "-k", 2, "--rank", "kdeg",
                "--artifacts", out]) == 1
    a, b = h.centroids[i[40]], h.centroids[j[40]]
    assert capsys.readouterr().err == (
        f"violation [edge_bounds] missing_coarse_edge nodes=({a}, {b}) "
        f"observed={crossing[40]} bound=0.0\n")


def test_verify_artifacts_reject_an_extra_coarse_edge_row_within_the_span_bounds(
        tmp_path, capsys):
    k = 2
    g, h, inp, out = grid_artifacts(tmp_path, k)
    nc = h.centroids.size
    i, j = np.triu_indices(nc, 1)
    fresh = ~np.isin(i * nc + j, h.keys)
    i, j = i[fresh], j[fresh]
    span = kcoarsen.graph.bfs(g, h.centroids[i], h.centroids[j], max_depth=2 * k + 1)
    inside = np.flatnonzero((span >= k + 1) & (span <= 2 * k + 1))
    assert inside.size
    a, b = i[inside[0]], j[inside[0]]
    _rewrite_rows(out / "coarse.edgelist", lambda rows: rows + [f"{a} {b} 1.0"])
    capsys.readouterr()
    assert run(["verify", "-i", inp, "-k", k, "--rank", "kdeg",
                "--artifacts", out]) == 1
    assert capsys.readouterr().err == (
        f"violation [edge_bounds] extra_coarse_edge nodes=({h.centroids[a]}, "
        f"{h.centroids[b]}) observed=0.0 bound=1.0\n")


def test_verify_artifacts_reject_a_scaled_coarse_weight(tmp_path, capsys):
    g, h, inp, out = grid_artifacts(tmp_path, 2)
    i, j, crossing = h.edge_list()
    scaled = float(crossing[7]) * 1000
    _rewrite_rows(out / "coarse.edgelist", lambda rows: rows[:7] + [
        f"{i[7]} {j[7]} {scaled!r}"] + rows[8:])
    capsys.readouterr()
    assert run(["verify", "-i", inp, "-k", 2, "--rank", "kdeg",
                "--artifacts", out]) == 1
    a, b = h.centroids[i[7]], h.centroids[j[7]]
    assert capsys.readouterr().err == (
        f"violation [edge_bounds] coarse_weight nodes=({a}, {b}) "
        f"observed={scaled} bound={float(crossing[7])}\n")


@pytest.mark.parametrize("agg", ["sum", "max", "min", "mean"])
def test_verify_checks_coarse_weights_by_its_edge_agg(tmp_path, capsys, agg):
    """Weighted artifacts pass under the --edge-agg that wrote them and
    fail under any other, which folds some crossing weights apart."""
    rng = helpers.make_rng("edge-agg", agg)
    inp = tmp_path / "weighted.edgelist"
    inp.write_text("".join(f"{u} {v} {rng.uniform(0.1, 10.0)!r}\n"
                           for u, v in helpers.grid_edges(12, 12)))
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", 1, "--rank", "kdeg", "--edge-agg", agg,
                "-o", out]) == 0
    for other in ("sum", "max", "min", "mean"):
        capsys.readouterr()
        code = run(["verify", "-i", inp, "-k", 1, "--rank", "kdeg",
                    "--edge-agg", other, "--artifacts", out])
        err = capsys.readouterr().err.splitlines()
        assert code == (other != agg)
        assert all(" coarse_weight " in line for line in err)


def test_verify_leaves_unweighted_coarse_edges_unchecked(tmp_path):
    """A coarse.edgelist without weights has no weight to check."""
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    _rewrite_rows(out / "coarse.edgelist",
                  lambda rows: [" ".join(row.split()[:2]) for row in rows])
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 0


PATH12 = helpers.path_edges(12)
TWO_PATH5 = helpers.path_edges(5) + [(u + 5, v + 5) for u, v in helpers.path_edges(5)]
PATH12_CLUSTERS = [0, 0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10]


def _scale_a_weight(keys, weights, nc):
    weights = weights.copy()
    weights[2] *= 2
    return keys, weights


def _drop_an_edge(keys, weights, nc):
    return np.delete(keys, 2), np.delete(weights, 2)


def _join_the_ends(keys, weights, nc):
    return np.append(keys, nc - 1), np.append(weights, 1.0)


def _bridge_the_components(keys, weights, nc):
    # coarse nodes 2 and 3, the clusters of 4 and 5, lie in different
    # input components
    at = np.searchsorted(keys, 2 * nc + 3)
    return np.insert(keys, at, 2 * nc + 3), np.insert(weights, at, 1.0)


# guarantee -> (input edges, assignment, coarse-key edit, the violation
# kinds of the default run, the kinds that --evidence adds): every
# guarantee in the verify module's docstring, broken at k = 1 in
# artifacts that `reduce` contracts from the assignment and the edit
# then alters
BROKEN_GUARANTEES = {
    "contraction": (PATH12, PATH12_CLUSTERS, _scale_a_weight,
                    {"coarse_weight"}, set()),
    # nodes 2, 5, 8 and 11 lie two hops from their centroids
    "radius": (PATH12, [0, 0, 0, 4, 4, 4, 7, 7, 7, 10, 10, 10], None,
               {"radius", "maximality"}, {"edge_bound"}),
    # centroids 0, 1 and 2 are adjacent
    "validity": (PATH12, [0, 1, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10], None,
                 {"independence"}, {"edge_bound"}),
    "edge_spans": (PATH12, PATH12_CLUSTERS, _join_the_ends,
                   {"extra_coarse_edge"}, {"edge_bound", "distortion_upper"}),
    "pair_distances": (PATH12, PATH12_CLUSTERS, _drop_an_edge,
                       {"missing_coarse_edge", "component_count",
                        "component_split"}, {"distortion_lower"}),
    "components": (TWO_PATH5, [0, 0, 2, 2, 4, 5, 5, 7, 7, 9],
                   _bridge_the_components,
                   {"extra_coarse_edge", "component_count"}, {"edge_bound"}),
}


@pytest.mark.parametrize("guarantee", sorted(BROKEN_GUARANTEES))
def test_each_broken_guarantee_fails_the_default_verify(tmp_path, capsys,
                                                        guarantee):
    """Fabricated artifacts that break one guarantee make the default run
    (the certificate) exit 1; --evidence finds the same violations and
    those of its pair searches."""
    edges, assignment, edit, kinds, added = BROKEN_GUARANTEES[guarantee]
    n = 1 + max(max(e) for e in edges)
    h = kcoarsen.coarsen.reduce(build(edges, n=n), np.array(assignment))
    keys, weights = h.keys, h.weights
    if edit is not None:
        keys, weights = edit(keys, weights, h.centroids.size)
    fabricated = kcoarsen.coarsen.CoarsenedGraph(
        keys=keys, weights=weights, centroids=h.centroids, assignment=h.assignment)
    out = tmp_path / "run"
    _write_coarsen_artifacts(out, RunConfig(command="coarsen", input="in",
                                            format="edgelist"),
                             np.arange(n), fabricated)
    inp = tmp_path / "in.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in edges))
    found = []
    for flags in ([], ["--evidence"]):
        capsys.readouterr()
        assert run(["verify", "-i", inp, "-k", 1, "--artifacts", out, *flags]) == 1
        report = VerificationReport.from_text(capsys.readouterr().out.split("\n", 1)[1])
        found.append({v.kind for _, v in report.all_violations()})
    assert found == [kinds, kinds | added]


def test_artifact_rows_read_back_in_any_order_and_orientation(tmp_path, capsys):
    """Shuffled coarse.edgelist rows, some reversed and those of weight 1.0
    without a weight column, read back as the pipeline's keys and
    weights to the bit, beside its assignment and centroids, and verify
    passes them."""
    rng = helpers.make_rng("artifact-rows")
    inp = tmp_path / "weighted.edgelist"
    inp.write_text("".join(
        f"{u} {v} {1.0 if rng.random() < 0.5 else rng.uniform(1.0, 10.0)!r}\n"
        for u, v in helpers.grid_edges(12, 12)))
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", 1, "--rank", "kdeg", "--edge-agg", "min",
                "-o", out]) == 0
    g, ids = load(inp)
    h, _, _ = coarsen_pipeline(g, 1, ranking="kdeg", edge_agg="min")

    def edit(rows):
        rows = rng.sample(rows, len(rows))
        for i, row in enumerate(rows):
            u, v, w = row.split()
            ends = f"{v} {u}" if i % 3 == 0 else f"{u} {v}"
            rows[i] = ends if w == "1.0" else f"{ends} {w}"
        return rows

    _rewrite_rows(out / "coarse.edgelist", edit)
    widths = {len(row.split()) for row in
              (out / "coarse.edgelist").read_text().splitlines() if row[0] != "#"}
    assert widths == {2, 3}
    read = _read_artifacts(out, g, ids)
    assert np.array_equal(read.keys, h.keys)
    assert read.weights.tobytes() == h.weights.tobytes()
    assert np.array_equal(read.assignment, h.assignment)
    assert np.array_equal(read.centroids, h.centroids)
    assert run(["verify", "-i", inp, "-k", 1, "--rank", "kdeg", "--edge-agg", "min",
                "--artifacts", out]) == 0


def test_each_command_writes_its_arguments_as_its_config(tmp_path, monkeypatch,
                                                         capsys):
    """The run_config.json of coarsen, the `# config:` line of verify's
    report and of bench.csv, for one command line each."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edgelist").write_text(
        "".join(f"{u} {u + 1} {1 + u % 3}.5\n" for u in range(9)))
    assert run(["coarsen", "-i", "g.edgelist", "-k", 1, "--rank", "kdeg",
                "--edge-agg", "max", "--node-agg", "sum", "--seed", 3,
                "--threads", 1, "-o", "out"]) == 0
    assert (tmp_path / "out" / "run_config.json").read_text() == (
        '{"artifacts": null, "command": "coarsen", "compare_greedy": false, '
        '"edge_agg": "max", "format": "edgelist", "input": "g.edgelist", "k": 1, '
        '"k_list": null, "node_agg": "sum", "oracle_cap": null, "output": "out", '
        '"pairs": null, "rank": "kdeg", "seed": 3, "threads": 1, "trials": null, '
        '"weight_range": null}\n')
    capsys.readouterr()
    assert run(["verify", "-i", "g.edgelist", "-k", 1, "--rank", "kdeg",
                "--edge-agg", "max", "--evidence", "--pairs", 50, "--seed", 2,
                "--threads", 1, "--artifacts", "out", "-o", "rep"]) == 0
    line = (
        '# config: {"artifacts": "out", "command": "verify", "compare_greedy": '
        'false, "edge_agg": "max", "format": "edgelist", "input": "g.edgelist", '
        '"k": 1, "k_list": null, "node_agg": "centroid", "oracle_cap": null, '
        '"output": "rep", "pairs": 50, "rank": "kdeg", "seed": 2, "threads": 1, '
        '"trials": null, "weight_range": null}\n')
    assert capsys.readouterr().out.startswith(line)
    assert (tmp_path / "rep" / "report.txt").read_text().startswith(line)
    assert run(["bench", "-i", "g.edgelist", "--k-list", "1,2", "--trials", 1,
                "--seed", 4, "--threads", 1, "-o", "b"]) == 0
    assert (tmp_path / "b" / "bench.csv").read_text().startswith(
        '# config: {"artifacts": null, "command": "bench", "compare_greedy": '
        'false, "edge_agg": "sum", "format": "edgelist", "input": "g.edgelist", '
        '"k": null, "k_list": [1, 2], "node_agg": "centroid", "oracle_cap": '
        '100000, "output": "b", "pairs": null, "rank": "kweight", "seed": 4, '
        '"threads": 1, "trials": 1, "weight_range": "1:100"}\n')


def test_verify_help_explains_the_coarsening_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "crossing-edge weight aggregation" in text
    assert "node weight aggregation" in text


def test_verify_non_finite_coarse_weight_exits_2(tmp_path, capsys):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out])
    _rewrite_rows(out / "coarse.edgelist",
                  lambda rows: ["0 1 inf"] + rows[1:])
    assert run(["verify", "-i", inp, "-k", "1", "--artifacts", out]) == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_edge_weight_exits_2(tmp_path, capsys):
    inp = tmp_path / "inf.edgelist"
    inp.write_text("0 1 inf\n1 2 1.0\n")
    assert run(["coarsen", "-i", inp, "-k", "1", "-o", tmp_path / "x"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_non_finite_score_exits_2(tmp_path, capsys):
    inp = write_path5(tmp_path)
    scores = tmp_path / "scores.txt"
    scores.write_text("1\n2\nnan\n4\n5\n")
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", f"file:{scores}",
                "-o", tmp_path / "x"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_threads_capped_at_cpu_count(tmp_path, monkeypatch):
    recorded = []
    real = kcoarsen.cli.coarsen_pipeline

    def spy(*args, workers, **kwargs):
        recorded.append(workers)
        return real(*args, workers=workers, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(kcoarsen.cli, "coarsen_pipeline", spy)
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "kdeg",
                "--threads", "1000000", "-o", out]) == 0
    assert recorded == [3]
    config = json.loads((out / "run_config.json").read_text())
    assert config["threads"] == 3


def test_parallel_weights_summing_past_float64_exit_2(tmp_path, capsys):
    inp = tmp_path / "big.edgelist"
    inp.write_text("1 2 1e308\n2 1 1e308\n2 3 1\n")
    assert run(["coarsen", "-i", inp, "-k", "1", "-o", tmp_path / "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]


@pytest.mark.parametrize("agg", ["sum", "mean"])
def test_crossing_weights_summing_past_float64(tmp_path, capsys, agg):
    # every weight is finite; three of them cross between the two clusters
    inp = tmp_path / "huge.edgelist"
    inp.write_text("".join(f"{u} {v} 1e308\n" for u, v in
                           [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6), (1, 4), (2, 5), (1, 5)]))
    code = run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "--edge-agg", agg,
                "-o", tmp_path / "x"])
    err = capsys.readouterr().err.splitlines()
    if agg == "sum":
        assert code == 2 and len(err) == 1 and "edge_agg 'sum'" in err[0]
    else:
        assert code == 0 and not err
        assert (tmp_path / "x" / "coarse.edgelist").read_text().splitlines()[1:] == \
            ["0 1 1e+308"]


def test_ranking_time_includes_the_cli_resolution(tmp_path, capsys, monkeypatch):
    resolve = kcoarsen.cli._resolve_rank_spec

    def delayed(*args, **kwargs):
        time.sleep(0.2)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(kcoarsen.cli, "_resolve_rank_spec", delayed)
    inp = write_path5(tmp_path)
    assert run(["coarsen", "-i", inp, "-k", "1", "-o", tmp_path / "x"]) == 0
    assert float(re.search(r"t_rank=([0-9.]+)s", capsys.readouterr().out)[1]) >= 0.2
    assert run(["bench", "-i", inp, "--k-list", "1", "--trials", "1",
                "-o", tmp_path / "b"]) == 0
    lines = (tmp_path / "b" / "bench.csv").read_text().splitlines()
    row = next(csv.DictReader(lines[1:]))
    assert float(row["t_total"]) >= float(row["t_rank"]) >= 0.2


def test_threads_below_one_is_usage_error(tmp_path):
    inp = write_path5(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "-i", inp, "-k", "1", "--threads", "0",
             "-o", tmp_path / "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--pairs", "-5"), ("verify", "--pairs", "0"),
    ("verify", "--seed", "-1"), ("coarsen", "--seed", "-1"),
    ("verify", "-k", "-1"), ("coarsen", "-k", "-1"),
])
def test_out_of_range_pairs_and_seed_are_usage_errors(tmp_path, capsys, command,
                                                      flag, value):
    inp = write_path5(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([command, "-i", inp, "-k", "1", flag, value, "-o", tmp_path / "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err and f"got {value}" in err
    assert not (tmp_path / "x").exists()


def test_smallest_pairs_and_seed_are_accepted(tmp_path, capsys):
    inp = write_path5(tmp_path)
    assert run(["verify", "-i", inp, "-k", "1", "--evidence", "--pairs", "1",
                "--seed", "0"]) == 0
    assert '"pairs": 1' in capsys.readouterr().out
    assert run(["verify", "-i", inp, "-k", "1", "--seed", 2**64]) == 0
    assert f'"seed": {2**64}' in capsys.readouterr().out


def test_pairs_without_evidence_is_a_usage_error(tmp_path, capsys):
    inp = write_path5(tmp_path)
    assert run(["verify", "-i", inp, "-k", "1", "--pairs", "50",
                "-o", tmp_path / "x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --pairs applies only with --evidence\n"
    assert not (tmp_path / "x").exists()


def test_verify_prints_the_evidence_tables_only_with_evidence(tmp_path, capsys):
    """The default run checks the certificate and prints every section
    with empty span and pair tables; --evidence fills them."""
    inp = write_path5(tmp_path)
    assert run(["verify", "-i", inp, "-k", "1", "--rank", "id"]) == 0
    config, report = capsys.readouterr().out.split("\n", 1)
    assert '"pairs": null' in config
    assert report == ("[meta]\nk,1\nstatus,pass\n[edge_bounds]\n[pairs]\n"
                      "[components]\n1,1\n[validity]\nselected,3\n[violations]\n")
    assert run(["verify", "-i", inp, "-k", "1", "--rank", "id", "--evidence"]) == 0
    config, report = capsys.readouterr().out.split("\n", 1)
    assert '"pairs": 10000' in config
    assert report.startswith("[meta]\nk,1\nstatus,pass\n[edge_bounds]\n0,2,2\n"
                             "2,4,2\n[pairs]\n0,1,1,0\n")


def write_path600(tmp_path):
    """A path above verify's exhaustive limit, so verify samples its pairs."""
    p = tmp_path / "path600.edgelist"
    p.write_text("".join(f"{u} {v}\n" for u, v in helpers.path_edges(600)))
    return p


def test_sampled_verify_leaves_numpy_random_unloaded(tmp_path):
    # pytest's own process already holds numpy.random, so a child runs verify
    argv = ["verify", "-i", str(write_path600(tmp_path)), "-k", "1",
            "--rank", "kdeg", "--evidence", "--seed", str(2**64)]
    code = ("import sys; from kcoarsen.cli import main; "
            f"code = main({argv!r}); "
            "print('numpy.random' in sys.modules, code, file=sys.stderr)")
    src = str(Path(kcoarsen.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                           capture_output=True, text=True, check=True)
    pairs = child.stdout.split("[pairs]\n")[1].split("[components]")[0]
    assert len(pairs.splitlines()) == 1000  # sampled, recording capped
    assert child.stderr.splitlines()[-1] == "False 0"


def test_sample_larger_than_memory_is_an_error_not_a_failed_check(tmp_path, capsys):
    # 10**12 pairs take 8 TB, which Linux refuses at once in overcommit
    # modes 0 and 2; a kernel that grants it would have the fill run out
    overcommit = Path("/proc/sys/vm/overcommit_memory")
    if not overcommit.exists() or overcommit.read_text().strip() not in ("0", "2"):
        pytest.skip("only a Linux kernel that refuses 8 TB is known to be safe")
    inp = write_path600(tmp_path)
    assert run(["verify", "-i", inp, "-k", "1", "--rank", "kdeg", "--evidence",
                "--pairs", 10**12]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "Traceback" not in err


def test_verify_disconnected_input_passes(tmp_path):
    inp = tmp_path / "two.edgelist"
    inp.write_text("0 1\n1 2\n3 4\n4 5\n")
    assert run(["verify", "-i", inp, "-k", "1", "--rank", "id"]) == 0


def test_verify_two_components_with_k_above_n_passes(tmp_path, capsys):
    # every node is within k = 4 hops of everything it can reach, and of
    # nothing it cannot
    inp = tmp_path / "two.edgelist"
    inp.write_text("0 1\n2 3\n")
    assert run(["verify", "-i", inp, "-k", "4", "--rank", "id"]) == 0
    assert "status,pass" in capsys.readouterr().out


def test_missing_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.edgelist"
    assert run(["coarsen", "-i", missing, "-k", "1", "-o", tmp_path / "x"]) == 2
    assert capsys.readouterr().err != ""


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.edgelist"
    bad.write_text("0 1\nbroken line here\n")
    assert run(["coarsen", "-i", bad, "-k", "1", "-o", tmp_path / "x"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("big", ["99999999999999999999",
                                 "-9223372036854775809"])
def test_id_beyond_int64_exits_2(tmp_path, capsys, big):
    inp = tmp_path / "big.edgelist"
    inp.write_text(f"0 1\n{big} 3\n")
    assert run(["coarsen", "-i", inp, "-k", "1", "-o", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "line 2" in err and "int64" in err


def test_unknown_rank_spec_exits_2(tmp_path, capsys, monkeypatch):
    """An unknown --rank exits 2 before the input is read, also where no
    ranking is resolved: under --artifacts and at k = 0."""
    inp = write_path5(tmp_path)
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", tmp_path / "art"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kcoarsen.cli, "load", lambda *args, **kwargs: pytest.fail("read"))
    for command in (["coarsen", "-k", "1"], ["coarsen", "-k", "0"], ["bench"],
                    ["verify", "-k", "1", "--artifacts", tmp_path / "art"], ["verify", "-k", "0"]):
        out = [] if command[0] == "verify" else ["-o", tmp_path / "x"]
        assert run([*command, *out, "-i", inp, "--rank", "zigzag"]) == 2
        assert capsys.readouterr().err == "error: unknown ranking spec 'zigzag'\n"


def test_unknown_format_is_usage_error(tmp_path):
    inp = write_path5(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "-i", inp, "-f", "graphml", "-k", "1",
             "-o", tmp_path / "x"])
    assert exc.value.code == 2


def test_bench_writes_csv(tmp_path, capsys):
    inp = tmp_path / "grid.edgelist"
    inp.write_text("".join(f"{u} {v}\n"
                           for u, v in helpers.king_grid_edges(6, 6)))
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "--k-list", "1,2", "--trials", "2",
                "--rank", "kdeg", "-o", out]) == 0
    rows = (out / "bench.csv").read_text().splitlines()
    data = [r for r in rows if r and not r.startswith("#")]
    assert data[0].startswith("k,trial,")  # header
    assert ",t_rank,t_select,t_cluster,t_reduce,t_total" in data[0]
    assert len(data) == 1 + 2 * 2  # two k values, two trials
    assert not (out / "compare.csv").exists()
    assert "k=1" in capsys.readouterr().out


def test_bench_compare_greedy(tmp_path):
    inp = write_path5(tmp_path)
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "--k-list", "1", "--trials", "2",
                "--compare-greedy", "-o", out]) == 0
    rows = (out / "compare.csv").read_text().splitlines()
    data = [r for r in rows if r and not r.startswith("#")]
    assert data[0].startswith("graph,")
    assert len(data) == 1 + 2 * 2  # two rules, two trials


def test_bench_skips_the_rules_that_the_oracle_cap_refuses(tmp_path, capsys):
    inp = write_path5(tmp_path)
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "--k-list", "1", "--trials", "1",
                "--compare-greedy", "--oracle-cap", "1", "-o", out]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"k=1 rule={rule}: skipped (power() refused: n=5 exceeds cap 1)"
        for rule in ("degree_rule", "weight_rule")]
    assert (out / "bench.csv").exists() and not (out / "compare.csv").exists()


def test_bench_rejects_empty_k_list(tmp_path):
    inp = write_path5(tmp_path)
    assert run(["bench", "-i", inp, "--k-list", "", "-o", tmp_path / "b"]) == 2


@pytest.mark.parametrize("flag, value", [("--oracle-cap", "-1"),
                                         ("--oracle-cap", "0"),
                                         ("--trials", "0")])
def test_bench_caps_and_trials_below_one_are_usage_errors(tmp_path, capsys,
                                                           flag, value):
    inp = write_path5(tmp_path)
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        run(["bench", "-i", inp, "--k-list", "1", "--compare-greedy", flag,
             value, "-o", out])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["1:inf", "nan:2", "5:1", "0:0", "-1:1"])
def test_bench_rejects_weight_range_outside_finite_positive(tmp_path, capsys, bounds):
    inp = write_path5(tmp_path)
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "--k-list", "1", "--trials", "1",
                "--compare-greedy", f"--weight-range={bounds}", "-o", out]) == 2
    assert "bad --k-list or --weight-range value" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()


def test_bench_accepts_a_one_point_weight_range(tmp_path):
    inp = write_path5(tmp_path)
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "--k-list", "1", "--trials", "1",
                "--compare-greedy", "--weight-range", "2:2", "-o", out]) == 0
    config = (out / "compare.csv").read_text().splitlines()[0]
    assert json.loads(config.split(": ", 1)[1])["weight_range"] == "2:2"


def test_bench_mm_input(tmp_path):
    inp = tmp_path / "g.mtx"
    inp.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "5 5 4\n2 1\n3 2\n4 3\n5 4\n"
    )
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "-f", "mm", "--k-list", "1",
                "--trials", "1", "-o", out]) == 0
