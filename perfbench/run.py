"""kcoarsen benchmark: wall time and peak memory of the real CLI.

    for w in mesh social uniform; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Set-up generates the workload's input graphs from the seed and runs one
reference ``kcoarsen coarsen`` per input; it is repeated and its median
reported as ``setup_s``.  With ``--trace 0`` the benchmark then runs
``kcoarsen verify --artifacts`` and ``kcoarsen coarsen`` child
processes, one at a time, for ``--seconds`` and reports medians.
With ``--trace 1`` it runs the CLI in-process under outside-in tracing
(see tracing.py), writes the spans to .bench_work/WORKLOAD/trace.json and
reports per-layer metrics instead; it also checks once that
``--threads 2`` writes the same artifacts as ``--threads 1``.

Every child gets ``--rank kdeg -k 2 --threads 1``: output does not depend
on the thread count, and on a 2-core box two threads make wall time
noisier.  Every child invocation is one operation.  It fails on a
nonzero exit, on verify output without ``status,pass``, or on coarsen
artifacts whose digest differs from the reference (reference.json for
recorded seeds, else the first set-up).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# workload -> (input of the coarsen children, input of the verify children).
# Verify is O(n * centroids) at this commit, and a uniform graph's
# depth-(2k+2) balls span nearly all of it, so uniform verifies a smaller
# graph from the same generator.
WORKLOADS = {
    "mesh": ("mesh", "mesh"),
    "social": ("social", "social"),
    "uniform": ("uniform", "uniform_small"),
}

RUN_FLAGS = ["--rank", "kdeg", "-k", "2"]
ENTRY = "import sys; from kcoarsen.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kcoarsen.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 3
MIN_SAMPLES = 3
SHAPE_KS = (1, 2, 4, 8)


@dataclass
class Ops:
    """Operation accounting: every child invocation is one attempt."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class ChildRun:
    seconds: float
    rss_mb: float
    code: int
    stdout: Path


def run_cli(args: list[str], stdout: Path) -> ChildRun:
    """Run ``kcoarsen ARGS`` as a child, as its console script would."""
    return run_child(["-c", ENTRY, *args], stdout)


def run_child(args: list[str], stdout: Path) -> ChildRun:
    """Run ``python3 ARGS`` on the checkout's sources and reap it.

    Its stdout goes to a file: verify prints a multi-MB report, which
    would fill a pipe that is only read after exit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, \
            open(stdout.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout)


def coarsen_argv(graph: Path, outdir: Path, threads: int = 1) -> list[str]:
    return ["coarsen", "-i", str(graph), *RUN_FLAGS, "--threads", str(threads),
            "-o", str(outdir)]


def verify_argv(graph: Path, artifacts: Path) -> list[str]:
    return ["verify", "-i", str(graph), *RUN_FLAGS, "--threads", "1",
            "--artifacts", str(artifacts)]


def artifact_digest(outdir: Path) -> str:
    """SHA-256 of coarsen artifacts, without the run configuration.

    ``# config:`` lines and run_config.json embed paths and --threads.
    """
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name == "run_config.json":
            continue
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for line in fh:
                if not line.startswith(b"# config:"):
                    digest.update(line)
    return digest.hexdigest()


def verify_passed(stdout: Path) -> bool:
    return b"\nstatus,pass\n" in stdout.read_bytes()


class Bench:
    """Inputs, reference artifacts and operation counts of one run."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.coarsen_input, self.verify_input = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.ops = Ops()
        self.recorded = json.loads(REFERENCE.read_text())
        self.refs: dict[str, dict] = {}

    def graph(self, name: str) -> Path:
        return self.work / f"{name}.edgelist"

    def ref_dir(self, name: str) -> Path:
        return self.work / f"{name}.ref"

    @property
    def inputs(self) -> list[str]:
        return list(dict.fromkeys((self.coarsen_input, self.verify_input)))

    def set_up(self) -> float:
        """Generate every input and coarsen it once; return the wall time."""
        start = perf_counter()
        for name in self.inputs:
            run = run_child([str(HERE / "generate.py"), name, str(self.seed),
                             str(self.graph(name))],
                            self.work / f"{name}.generate.stdout")
            if run.code != 0:
                sys.exit(f"perfbench: generator {name} exited {run.code}")
            info = json.loads(run.stdout.read_text())
            run = run_cli(coarsen_argv(self.graph(name), self.ref_dir(name)),
                          self.work / f"{name}.ref.stdout")
            if run.code == 0:
                info["artifacts_sha256"] = artifact_digest(self.ref_dir(name))
            expected = (self.recorded.get(name, {}).get(str(self.seed))
                        or self.refs.get(name, info))
            self.ops.check(run.code == 0 and info == expected,
                           f"reference coarsen of {name}: exit {run.code}, "
                           f"got {info}, expected {expected}")
            self.refs.setdefault(name, expected)
        return perf_counter() - start

    def coarsen_ok(self, code: int, name: str, outdir: Path, how: str) -> bool:
        digest = artifact_digest(outdir) if code == 0 else None
        return self.ops.check(
            digest is not None
            and digest == self.refs[name].get("artifacts_sha256"),
            f"{how} coarsen of {name}: exit {code}, artifacts {digest}")

    def verify_ok(self, code: int, stdout: Path, how: str) -> bool:
        return self.ops.check(code == 0 and verify_passed(stdout),
                              f"{how} verify: exit {code}")


def measure(bench: Bench, seconds: float) -> dict[str, list[ChildRun]]:
    """Run cycles of children until `seconds` have passed.

    A cycle is one verify child, then coarsen children until they have
    taken at least half as long as that verify: a coarsen child is often
    the shorter one, and short children need more samples to be steady.
    """
    cin = bench.coarsen_input
    vin = bench.verify_input
    out = bench.work / "sample"
    runs: dict[str, list[ChildRun]] = {"coarsen": [], "verify": []}
    deadline = perf_counter() + seconds
    while len(runs["verify"]) < MIN_SAMPLES or perf_counter() < deadline:
        verify = run_cli(verify_argv(bench.graph(vin), bench.ref_dir(vin)),
                         bench.work / "verify.stdout")
        bench.verify_ok(verify.code, verify.stdout, "timed")
        runs["verify"].append(verify)
        spent = 0.0
        while spent < verify.seconds / 2:
            run = run_cli(coarsen_argv(bench.graph(cin), out),
                          bench.work / "coarsen.stdout")
            bench.coarsen_ok(run.code, cin, out, "timed")
            runs["coarsen"].append(run)
            spent += run.seconds
    return runs


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.set_up() for _ in range(SETUP_REPEATS)]
    runs = measure(bench, seconds)
    samples = {
        "coarsen_s": [r.seconds for r in runs["coarsen"]],
        "verify_s": [r.seconds for r in runs["verify"]],
        "coarsen_peak_rss_mb": [r.rss_mb for r in runs["coarsen"]],
        "verify_peak_rss_mb": [r.rss_mb for r in runs["verify"]],
        "setup_s": setups,
    }
    return ({name: statistics.median(v) for name, v in samples.items()},
            {name: len(v) for name, v in samples.items()})


def thread_speedup(ops: Ops, g, ranking) -> float:
    """Median k_mis time at 1 worker over that at 2 (same selection)."""
    from kcoarsen.kmis import k_mis

    times = {1: [], 2: []}
    chosen = {}
    for _ in range(3):
        for workers, samples in times.items():
            start = perf_counter()
            chosen[workers] = k_mis(g, 2, ranking, workers=workers).selected
            samples.append(perf_counter() - start)
    ops.check(chosen[1].tolist() == chosen[2].tolist(),
              "k_mis selects different sets at 1 and 2 workers")
    return statistics.median(times[1]) / statistics.median(times[2])


def runtime_shape(g) -> dict[int, float]:
    """Best of 3 pipeline times per k, as criterion 7 of the acceptance
    suite takes them: it wants t(k) <= 2k t(1) and t(8) <= 1.1 t(4)."""
    from kcoarsen.coarsen import coarsen_pipeline

    shape = {}
    for k in SHAPE_KS:
        times = []
        for _ in range(3):
            start = perf_counter()
            coarsen_pipeline(g, k, ranking="kdeg")
            times.append(perf_counter() - start)
        shape[k] = min(times)
    return shape


def traced(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics from an in-process traced coarsen and verify."""
    sys.path.insert(0, str(SRC))
    import kcoarsen.cli
    from kcoarsen.graph import load
    from kcoarsen.ranking import resolve_ranking

    from tracing import Tracer, layer_metrics

    bench.set_up()
    work = bench.work
    cin = bench.coarsen_input
    vin = bench.verify_input

    run = run_cli(coarsen_argv(bench.graph(cin), work / "threads2", 2),
                  work / "threads2.stdout")
    bench.coarsen_ok(run.code, cin, work / "threads2", "--threads 2")

    imports = []
    for _ in range(5):
        run = run_child(["-c", IMPORT_PROBE], work / "import.stdout")
        if bench.ops.check(run.code == 0, f"import probe: exit {run.code}"):
            imports.append(float(run.stdout.read_text()))

    def in_process(main, argv) -> tuple[float, int]:
        with open(work / "inproc.stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            start = perf_counter()
            code = main(argv)
            return perf_counter() - start, code

    out = {name: work / f"inproc.{name}" for name in bench.inputs}
    verify_args = verify_argv(bench.graph(vin), bench.ref_dir(vin))

    def coarsen_verify(main) -> tuple[float, float, float]:
        """Coarsen cin, verify vin and, when vin differs, coarsen vin."""
        times = []
        for name in bench.inputs:
            seconds_, code = in_process(
                main, coarsen_argv(bench.graph(name), out[name]))
            bench.coarsen_ok(code, name, out[name], "in-process")
            times.append(seconds_)
        seconds_, code = in_process(main, verify_args)
        bench.verify_ok(code, work / "inproc.stdout", "in-process")
        return times[0], seconds_, times[-1]

    plain = []
    deadline = perf_counter() + seconds
    while len(plain) < MIN_SAMPLES or perf_counter() < deadline:
        plain.append(coarsen_verify(kcoarsen.cli.main))
    coarsen_s = statistics.median(t[0] for t in plain)
    verify_s = statistics.median(t[1] for t in plain)
    coarsen_vin_s = statistics.median(t[2] for t in plain)

    tracer = Tracer()
    main = tracer.wrap("cli.main", kcoarsen.cli.main)
    with tracer.installed():
        code = in_process(main, coarsen_argv(bench.graph(cin), out[cin]))[1]
        bench.coarsen_ok(code, cin, out[cin], "traced")
        code = in_process(main, verify_args)[1]
        bench.verify_ok(code, work / "inproc.stdout", "traced")
    metrics = layer_metrics(tracer)
    mains = sum(s.seconds for s in tracer.spans if s.name == "cli.main")
    overhead = mains - coarsen_s - verify_s
    unaccounted = abs(sum(tracer.self_seconds()) - mains)

    g, _ = load(bench.graph(cin))
    speedup = thread_speedup(bench.ops, g, resolve_ranking(g, "kdeg", k=2))
    shape = runtime_shape(g)
    metrics.update({
        "kmis.thread_speedup": speedup,
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.artifact_bytes": sum(p.stat().st_size
                                  for p in out[cin].iterdir()),
        "verify.over_coarsen": verify_s / coarsen_vin_s,
        "trace.overhead_s": overhead,
        "shape.linear_k": max(shape[k] / (2 * k * shape[1])
                              for k in SHAPE_KS[1:]),
        "shape.t8_over_t4": shape[8] / shape[4],
    })
    shares: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        shares[span.name] = shares.get(span.name, 0.0) + own / mains
    shares = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    print("self-time shares of traced main:",
          ", ".join(f"{name} {share:.1%}" for name, share in shares.items()))
    with open(work / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"inputs": bench.refs, "metrics": metrics, "shares": shares,
                   "shape_s": shape, "spans": tracer.to_json()}, fh)
    if unaccounted > max(abs(overhead), 1e-6):
        bench.ops.problems.append(
            f"self times miss traced main by {unaccounted:.6f} s")
    return metrics


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kcoarsen" / "cli.py").is_file():
        print(f"perfbench: no kcoarsen sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    if args.trace:
        values, counts = traced(bench, args.seconds), {}
        metric_units = units("per_layer")
    else:
        values, counts = end_to_end(bench, args.seconds)
        metric_units = units("end_to_end")
    for name, info in bench.refs.items():
        print(f"input {name}: n={info['n']} m={info['m']} "
              f"sha256={info['input_sha256'][:16]} "
              f"artifacts={str(info.get('artifacts_sha256'))[:16]}")
    for name, unit in metric_units.items():
        samples = f" ({counts[name]} samples)" if name in counts else ""
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}{samples}")
    print(f"{args.workload} operations: {bench.ops.attempted} attempted, "
          f"{bench.ops.failed} failed")
    for problem in bench.ops.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.ops.problems,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
