"""Coarsen artifacts stay byte-identical to the benchmark's reference.

perfbench/reference.json records, per benchmark input and seed, the
input's n, m and SHA-256 and the SHA-256 of the artifacts that
``kcoarsen coarsen`` writes for it.  This test regenerates four inputs
at seed 0 with the benchmark's generator, coarsens them with the
benchmark's flags and compares digests, so a change to the artifact
bytes fails here and not only in a benchmark run.  Full ``uniform``'s
184k coarse edges span three write blocks.  It also pins the
stdout of ``kcoarsen verify --artifacts`` on the same runs.  It writes
nothing under perfbench/.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kcoarsen.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["mesh", "social", "uniform_small", "uniform"])
def test_coarsen_artifacts_match_reference_digest(tmp_path, monkeypatch, name):
    generate = load_perfbench("generate", monkeypatch)
    run = load_perfbench("run", monkeypatch)
    reference = json.loads(run.REFERENCE.read_text())[name]["0"]
    graph = tmp_path / f"{name}.edgelist"
    info = generate.generate(name, 0, graph)
    assert info == {key: reference[key] for key in ("n", "m", "input_sha256")}
    out = tmp_path / "out"
    assert main(run.coarsen_argv(graph, out)) == 0
    assert run.artifact_digest(out) == reference["artifacts_sha256"]


# SHA-256 of `kcoarsen verify --artifacts` stdout without its `# config:`
# line, for the benchmark's flags on the seed-0 inputs.
VERIFY_STDOUT_SHA256 = {
    "mesh": "300fc8843a384c8079d8a0d551f06dd8efb53e082f2f86b4f4adf564f9904c22",
    "social": "4db0e24bc5949633066c4d0ef2b6c09acf8b91c49a68f0262f15f7a7bf5b7b7e",
    "uniform_small": "48b0a9ec469f46b2641640b70e7cf4cfe083295042375a25896d08e505a44901",
}


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_matches_reference_digest(tmp_path, monkeypatch, capsys, name):
    generate = load_perfbench("generate", monkeypatch)
    run = load_perfbench("run", monkeypatch)
    graph = tmp_path / f"{name}.edgelist"
    generate.generate(name, 0, graph)
    out = tmp_path / "out"
    assert main(run.coarsen_argv(graph, out)) == 0
    capsys.readouterr()
    assert main(run.verify_argv(graph, out)) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    report = "".join(line for line in lines if not line.startswith("# config:"))
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_STDOUT_SHA256[name]
