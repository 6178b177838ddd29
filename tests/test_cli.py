"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import json
import os
import re
from concurrent.futures import Future

import numpy as np
import pytest

import kcoarsen._propagate
import kcoarsen.cli
from kcoarsen import build, coarsen_pipeline
from kcoarsen.cli import RunConfig, _id_columns, _write_coarsen_artifacts, main

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
    h, partition, result = coarsen_pipeline(g, 1, ranking="id", node_agg="sum",
                                            weights=[1.0, 0.1, 0.2, 4.0, 1 / 3])
    config = RunConfig(command="coarsen", input="in", format="edgelist")
    _write_coarsen_artifacts(tmp_path, config, g, np.arange(5) * 10, h,
                             partition, result)
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
    ("assignment.txt", lambda rows: rows + ["99999999999999999999 0"],
     "must fit int64"),
    ("centroids.txt", lambda rows: rows[:1] + ["1 x"] + rows[2:],
     "must be integers"),
    ("centroids.txt", lambda rows: rows + ["3 9"], "unknown node id 9"),
    ("centroids.txt", lambda rows: rows[:1] + rows[2:],
     "coarse indices must run 0..nc-1"),
], ids=["three_columns", "float_column", "centroid_note", "unknown_id",
        "beyond_int64", "non_integer",
        "unknown_centroid", "missing_centroid"])
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
    h, partition, result = coarsen_pipeline(g, 1, ranking="id", node_agg="sum",
                                            weights=[1.0, 0.1, 0.2, 4.0, 1 / 3])
    config = RunConfig(command="coarsen", input="in", format="edgelist")
    ids = np.array([-(2**62), -5, 0, 7, 2**62])
    _write_coarsen_artifacts(tmp_path, config, g, ids, h, partition, result)
    more = {"assignment.txt": False, "centroids.txt": True}
    fast = {name: _id_columns(tmp_path / name, more[name]) for name in more}
    monkeypatch.setattr(kcoarsen.cli, "_fast_edgelist", lambda data: None)
    assert fast["assignment.txt"].tolist() == [
        [v, c] for v, c in zip(ids.tolist(), ids[partition.assignment].tolist())]
    assert fast["centroids.txt"].tolist() == [
        [i, c] for i, c in enumerate(ids[h.centroids].tolist())]
    for name, pairs in fast.items():
        slow = _id_columns(tmp_path / name, more[name])
        assert slow.dtype == pairs.dtype and np.array_equal(slow, pairs)


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


def test_threads_capped_at_cpu_count(tmp_path, monkeypatch, split_every_row):
    recorded = []

    class InlinePool:
        """Records the requested size and runs every task at once."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # three CPUs, so the 5-node input splits on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(kcoarsen._propagate, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(kcoarsen._propagate, "_POOLS", {})  # none cached yet
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "kdeg",
                "--threads", "1000000", "-o", out]) == 0
    cpus = os.cpu_count()
    assert recorded and all(workers <= cpus for workers in recorded)
    config = json.loads((out / "run_config.json").read_text())
    assert config["threads"] == cpus


def test_parallel_weights_summing_past_float64_exit_2(tmp_path, capsys):
    inp = tmp_path / "big.edgelist"
    inp.write_text("1 2 1e308\n2 1 1e308\n2 3 1\n")
    assert run(["coarsen", "-i", inp, "-k", "1", "-o", tmp_path / "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "float64" in err[0]


def test_threads_below_one_is_usage_error(tmp_path):
    inp = write_path5(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["coarsen", "-i", inp, "-k", "1", "--threads", "0",
             "-o", tmp_path / "x"])
    assert exc.value.code == 2


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


def test_unknown_rank_spec_exits_2(tmp_path, capsys):
    inp = write_path5(tmp_path)
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "zigzag",
                "-o", tmp_path / "x"]) == 2


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


def test_bench_rejects_empty_k_list(tmp_path):
    inp = write_path5(tmp_path)
    assert run(["bench", "-i", inp, "--k-list", "", "-o", tmp_path / "b"]) == 2


def test_bench_mm_input(tmp_path):
    inp = tmp_path / "g.mtx"
    inp.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "5 5 4\n2 1\n3 2\n4 3\n5 4\n"
    )
    out = tmp_path / "bench"
    assert run(["bench", "-i", inp, "-f", "mm", "--k-list", "1",
                "--trials", "1", "-o", out]) == 0
