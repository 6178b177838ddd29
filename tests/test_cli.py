"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import json
import os
from concurrent.futures import Future

import pytest

import kcoarsen._propagate
from kcoarsen.cli import main

from . import helpers


def write_path5(tmp_path, name="path5.edgelist"):
    p = tmp_path / name
    p.write_text("".join(f"{u} {v}\n" for u, v in helpers.path_edges(5)))
    return p


def run(argv):
    return main([str(a) for a in argv])


def test_coarsen_writes_artifacts(tmp_path, capsys):
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "id", "-o", out]) == 0
    for name in ("coarse.edgelist", "assignment.txt", "centroids.txt",
                 "node_ids.txt", "run_config.json"):
        assert (out / name).exists()
    stats = capsys.readouterr().out
    assert "n=5 m=4 coarse_n=3 coarse_m=2 selected=3" in stats

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
    assert "error:" in capsys.readouterr().err


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

    class InlinePool:
        """Records the requested size and runs every task at once."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(kcoarsen._propagate, "ThreadPoolExecutor", InlinePool)
    inp = write_path5(tmp_path)
    out = tmp_path / "run"
    assert run(["coarsen", "-i", inp, "-k", "1", "--rank", "kdeg",
                "--threads", "1000000", "-o", out]) == 0
    cpus = os.cpu_count() or 1
    assert all(workers <= cpus for workers in recorded)
    config = json.loads((out / "run_config.json").read_text())
    assert config["threads"] == cpus


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
