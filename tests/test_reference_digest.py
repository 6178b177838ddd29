"""Coarsen artifacts stay byte-identical to the benchmark's reference.

perfbench/reference.json records, per benchmark input and seed, the
input's n, m and SHA-256 and the SHA-256 of the artifacts that
``kcoarsen coarsen`` writes for it.  This test regenerates four inputs
at seed 0 with the benchmark's generator, coarsens them with the
benchmark's flags and compares digests, so a change to the artifact
bytes fails here and not only in a benchmark run.  Full ``uniform``'s
184k coarse edges span three write blocks.  It also pins the
stdout of ``kcoarsen verify --artifacts``, with and without
``--evidence``, on the same runs, and the
artifacts of a weighted graph built here under every --edge-agg.  It
writes nothing under perfbench/.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
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


# SHA-256 of `kcoarsen verify --artifacts --evidence` stdout without its
# `# config:` line, for the benchmark's flags on the seed-0 inputs.
VERIFY_STDOUT_SHA256 = {
    "mesh": "6de9ef8a01029dccd5561ee87bbf2e602dc9b5c57c033ad65051a8f28cbe4cac",
    "social": "407bc0081f1ab946cf67e9227aaa024a4de458f2c4f9bfa3d49d5ddb4c4c64d9",
    "uniform_small": "dc08d7231fffc2f525ba4dbeb7d1c4dc16b303e1591fb9a11df414abccb15a65",
}
# The same without --evidence: the certificate run, its span and pair
# tables empty.
CERTIFICATE_STDOUT_SHA256 = {
    "mesh": "35c801b0ddb2131c14889104001d130748a5ec9b44b7e18e4193ddf0a5dd1826",
    "social": "65d527340d83eecc265b41d0419422d2c9f135eac3abeee5104333a459c6be27",
    "uniform_small": "2600d91c5e0c5602e41c0d30a00585fad380d9c33aaf93a6f971c04b2024c067",
}


def verify_stdout_digest(tmp_path, monkeypatch, capsys, name, *flags):
    """SHA-256 of the benchmark's verify stdout on the seed-0 input `name`,
    its `# config:` line dropped, with `flags` added."""
    generate = load_perfbench("generate", monkeypatch)
    run = load_perfbench("run", monkeypatch)
    graph = tmp_path / f"{name}.edgelist"
    generate.generate(name, 0, graph)
    out = tmp_path / "out"
    assert main(run.coarsen_argv(graph, out)) == 0
    capsys.readouterr()
    assert main([*run.verify_argv(graph, out), *flags]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    report = "".join(line for line in lines if not line.startswith("# config:"))
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_matches_reference_digest(tmp_path, monkeypatch, capsys, name):
    assert verify_stdout_digest(tmp_path, monkeypatch, capsys, name,
                                "--evidence") == VERIFY_STDOUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(CERTIFICATE_STDOUT_SHA256))
def test_certificate_stdout_matches_reference_digest(tmp_path, monkeypatch,
                                                     capsys, name):
    assert verify_stdout_digest(tmp_path, monkeypatch, capsys, name) \
        == CERTIFICATE_STDOUT_SHA256[name]


def write_weighted_graph(path):
    """A seeded graph on about 3,000 nodes with about 12,000 distinct edges
    and non-dyadic weights, so coarse sums depend on their order."""
    rng = np.random.default_rng(2022)
    n = 3000
    u, v = rng.integers(0, n, size=(2, 12_000))
    key = np.unique(np.minimum(u, v)[u != v] * n + np.maximum(u, v)[u != v])
    w = rng.uniform(0.1, 10.0, key.size)
    path.write_text("".join(f"{a} {b} {x!r}\n" for a, b, x in
                            zip((key // n).tolist(), (key % n).tolist(), w.tolist())))


# SHA-256 of the coarsen artifacts of the weighted graph under
# `--rank kweight -k 2`, per --edge-agg: 2,998 nodes, 11,980 edges and
# 7,634 coarse edges.
WEIGHTED_ARTIFACTS_SHA256 = {
    "sum": "39484c66412c264dfcfb7c178c18c635121bd7658745e9ec7ac0290cf54e0834",
    "mean": "96e81da8da7f059383b7b58ac556980f828837607460b5e518512ddd8e794f61",
    "max": "5240712614d8bc9fe9e4bdf281b9cc599215dea3f03611f8c626aec8fa1d8af1",
    "min": "b526e234405d796968a24b9e546f7183b0884df433b8235cdadbd806b215ce17",
}


@pytest.mark.parametrize("agg", sorted(WEIGHTED_ARTIFACTS_SHA256))
def test_weighted_coarsen_artifacts_match_reference_digest(tmp_path, monkeypatch,
                                                           agg):
    run = load_perfbench("run", monkeypatch)
    graph = tmp_path / "weighted.edgelist"
    write_weighted_graph(graph)
    out = tmp_path / "out"
    assert main(["coarsen", "-i", str(graph), "--rank", "kweight", "-k", "2",
                 "--edge-agg", agg, "--threads", "1", "-o", str(out)]) == 0
    assert run.artifact_digest(out) == WEIGHTED_ARTIFACTS_SHA256[agg]
