"""Command-line interface: coarsen graphs, verify reductions, benchmark.

Exit codes: 0 on success, 1 when verification finds a violation, 2 on
usage or IO errors.  Every output artifact embeds the run configuration
(including seeds), so a run can be reproduced from any of its files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import oracle
from .coarsen import (CoarsenedGraph, EDGE_AGGREGATIONS, Partition,
                      coarsen_pipeline)
from .graph import (DEFAULT_ORACLE_CAP, Graph, GraphFormatError, data_lines,
                    load, store, _build_arrays)
from .kmis import KMisResult
# Called under its own name: perfbench/tracing.py wraps cli._resolve_rank_spec
# to time the ranking phase.
from .ranking import resolve_ranking as _resolve_rank_spec
from .verify import verify_reduction

__all__ = ["RunConfig", "main"]

_NODE_AGG_FLAGS = {"centroid": "keep_centroid", "sum": "sum", "mean": "mean"}


@dataclass
class RunConfig:
    """Everything needed to reproduce a run (timings excluded)."""

    command: str
    input: str
    format: str
    k: int | None = None
    k_list: list[int] | None = None
    rank: str = "kweight"
    edge_agg: str = "sum"
    node_agg: str = "centroid"
    output: str | None = None
    seed: int = 0
    threads: int = 1
    pairs: int | None = None
    trials: int | None = None
    compare_greedy: bool = False
    weight_range: str | None = None
    oracle_cap: int | None = None
    artifacts: str | None = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _thread_count(text: str) -> int:
    """A --threads value, capped at the CPU count: extra threads only queue."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return min(value, os.cpu_count() or 1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", required=True, help="input graph file")
    parser.add_argument("-f", "--format", choices=["edgelist", "mm"],
                        default="edgelist", help="input format (default edgelist)")
    parser.add_argument("--rank", default="kweight",
                        help="ranking: kdeg, kweight, id, random, const, or file:PATH")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random rankings and sampling")
    parser.add_argument("--threads", type=_thread_count,
                        default=os.cpu_count() or 1,
                        help="worker count, capped at the CPU count; results "
                             "do not depend on it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcoarsen",
        description="Coarsen graphs by contracting k-independent centroids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coarsen", help="coarsen a graph and write artifacts")
    _add_common(p)
    p.add_argument("-k", type=int, required=True,
                   help="independence radius; 0 is the identity coarsening")
    p.add_argument("--edge-agg", choices=list(EDGE_AGGREGATIONS), default="sum",
                   help="crossing-edge weight aggregation")
    p.add_argument("--node-agg", choices=list(_NODE_AGG_FLAGS), default="centroid",
                   help="node weight aggregation")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_coarsen)

    p = sub.add_parser("verify", help="coarsen (or load artifacts) and check guarantees")
    _add_common(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--edge-agg", choices=list(EDGE_AGGREGATIONS), default="sum")
    p.add_argument("--node-agg", choices=list(_NODE_AGG_FLAGS), default="centroid")
    p.add_argument("--pairs", type=int, default=10_000,
                   help="sampled node pairs for distance checks on large graphs")
    p.add_argument("--artifacts", default=None,
                   help="verify a previously written output directory instead "
                        "of re-coarsening")
    p.add_argument("-o", "--output", default=None,
                   help="optional directory for the report file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep k values and record phase timings")
    _add_common(p)
    p.add_argument("--k-list", default="1,2,4,8",
                   help="comma-separated k values (default 1,2,4,8)")
    p.add_argument("--trials", type=int, default=10,
                   help="repetitions per k (and greedy trials)")
    p.add_argument("--compare-greedy", action="store_true",
                   help="also run the sequential greedy baseline on the "
                        "explicit power graph")
    p.add_argument("--weight-range", default="1:100",
                   help="uniform node-weight range LO:HI for greedy trials")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                   help="largest n for which the power graph may be built")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)
    return parser


def _write_coarsen_artifacts(outdir: Path, config: RunConfig, g: Graph,
                             original_ids: np.ndarray, h: CoarsenedGraph,
                             partition: Partition, result: KMisResult) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    header = [f"config: {config.to_json()}"]
    store(h.graph, outdir / "coarse.edgelist", header_lines=header)
    with open(outdir / "assignment.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# {header[0]}\n# original_id centroid_id\n")
        centroids_orig = original_ids[partition.assignment]
        for a, b in zip(original_ids.tolist(), centroids_orig.tolist()):
            fh.write(f"{a} {b}\n")
    with open(outdir / "centroids.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# {header[0]}\n# coarse_index centroid_id")
        has_values = h.node_values is not None
        fh.write(" node_value\n" if has_values else "\n")
        for i, c in enumerate(original_ids[h.centroids].tolist()):
            if has_values:
                fh.write(f"{i} {c} {float(h.node_values[i])!r}\n")
            else:
                fh.write(f"{i} {c}\n")
    with open(outdir / "node_ids.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# {header[0]}\n# dense_id original_id\n")
        for i, orig in enumerate(original_ids.tolist()):
            fh.write(f"{i} {orig}\n")
    with open(outdir / "run_config.json", "w", encoding="utf-8") as fh:
        fh.write(config.to_json() + "\n")


def cmd_coarsen(args) -> int:
    config = RunConfig(command="coarsen", input=args.input, format=args.format,
                       k=args.k, rank=args.rank, edge_agg=args.edge_agg,
                       node_agg=args.node_agg, output=args.output,
                       seed=args.seed, threads=args.threads)
    g, original_ids = load(args.input, format=args.format)
    timings: dict[str, float] = {}
    ranking = "const" if args.k == 0 else _resolve_rank_spec(
        g, args.rank, k=args.k, seed=args.seed, workers=args.threads)
    h, partition, result = coarsen_pipeline(
        g, args.k, ranking=ranking, edge_agg=args.edge_agg,
        node_agg=_NODE_AGG_FLAGS[args.node_agg], seed=args.seed,
        workers=args.threads, timings=timings)
    _write_coarsen_artifacts(Path(args.output), config, g, original_ids, h,
                             partition, result)
    ratio = result.selected.size / g.n if g.n else 0.0
    print(f"n={g.n} m={g.m} coarse_n={h.graph.n} coarse_m={h.graph.m} "
          f"selected={result.selected.size} ratio={ratio:.4f} "
          f"rounds={result.rounds} "
          f"t_rank={timings.get('ranking', 0.0):.4f}s "
          f"t_kmis={timings.get('kmis', 0.0):.4f}s "
          f"t_reduce={timings.get('reduce', 0.0):.4f}s")
    return 0


def _read_artifacts(artifacts: Path, g: Graph, original_ids: np.ndarray,
                    k: int) -> tuple[CoarsenedGraph, KMisResult]:
    """Rebuild a coarsening from files written by cmd_coarsen.

    Raises ValueError unless the centroid rows carry coarse indices
    0..nc-1, each once, with centroid ids increasing by index (the
    writer's order), so the stored index is the one verified.
    """
    to_dense = {orig: i for i, orig in enumerate(original_ids.tolist())}

    def dense_of(original: int, path: Path) -> int:
        if original not in to_dense:
            raise ValueError(f"{path}: unknown node id {original}")
        return to_dense[original]

    assignment_path = artifacts / "assignment.txt"
    assignment = np.full(g.n, -1, dtype=np.int64)
    with open(assignment_path, "r", encoding="utf-8") as fh:
        for _, line in data_lines(fh):
            a, b = (int(tok) for tok in line.split())
            assignment[dense_of(a, assignment_path)] = dense_of(b, assignment_path)
    if (assignment < 0).any():
        raise ValueError("assignment file does not cover every node")

    centroids_path = artifacts / "centroids.txt"
    centroid_rows: list[tuple[int, int]] = []
    with open(centroids_path, "r", encoding="utf-8") as fh:
        for _, line in data_lines(fh):
            index, centroid = line.split()[:2]  # ValueError on a short row
            centroid_rows.append((int(index),
                                  dense_of(int(centroid), centroids_path)))
    centroid_rows.sort()
    index = np.array([i for i, _ in centroid_rows], dtype=np.int64)
    centroids = np.array([c for _, c in centroid_rows], dtype=np.int64)
    if (not np.array_equal(index, np.arange(index.size))
            or np.any(np.diff(centroids) <= 0)):
        raise ValueError(f"{centroids_path}: coarse indices must run 0..nc-1 "
                         "with centroid ids increasing by index")

    # the stored edgelist drops isolated coarse nodes and load() re-densifies
    # ids, so rebuild the coarse graph through the loader's id map
    loaded, coarse_ids = load(artifacts / "coarse.edgelist")
    u, v, w = loaded.edge_list()
    if coarse_ids.size and coarse_ids.max() >= centroids.size:
        raise ValueError("coarse edgelist references unknown coarse index")
    coarse_graph = _build_arrays(coarse_ids[u], coarse_ids[v], w,
                                 centroids.size)
    partition = Partition(assignment=assignment,
                          cluster_count=int(centroids.size))
    h = CoarsenedGraph(graph=coarse_graph, centroids=centroids,
                       provenance=partition)
    return h, KMisResult(selected=centroids.copy(), rounds=0, k=k)


def cmd_verify(args) -> int:
    config = RunConfig(command="verify", input=args.input, format=args.format,
                       k=args.k, rank=args.rank, edge_agg=args.edge_agg,
                       node_agg=args.node_agg, output=args.output,
                       seed=args.seed, threads=args.threads, pairs=args.pairs,
                       artifacts=args.artifacts)
    g, original_ids = load(args.input, format=args.format)
    if args.artifacts:
        h, result = _read_artifacts(Path(args.artifacts), g, original_ids,
                                    args.k)
    else:
        ranking = "const" if args.k == 0 else _resolve_rank_spec(
            g, args.rank, k=args.k, seed=args.seed, workers=args.threads)
        h, _, result = coarsen_pipeline(
            g, args.k, ranking=ranking, edge_agg=args.edge_agg,
            node_agg=_NODE_AGG_FLAGS[args.node_agg], seed=args.seed,
            workers=args.threads)
    report = verify_reduction(g, h, args.k, result=result,
                              sample_pairs=args.pairs, seed=args.seed)
    text = report.to_text()
    sys.stdout.write(f"# config: {config.to_json()}\n")
    sys.stdout.write(text)
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "report.txt", "w", encoding="utf-8") as fh:
            fh.write(f"# config: {config.to_json()}\n")
            fh.write(text)
    if not report.passed:
        for section, violation in report.all_violations()[:20]:
            print(f"violation [{section}] {violation.kind} nodes={violation.nodes} "
                  f"observed={violation.observed} bound={violation.bound}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k_list.split(",") if tok]
        low_txt, high_txt = args.weight_range.split(":")
        weight_low, weight_high = float(low_txt), float(high_txt)
    except ValueError:
        print("bad --k-list or --weight-range value", file=sys.stderr)
        return 2
    if not k_values or min(k_values) < 1 or args.trials < 1:
        print("bench needs k values >= 1 and trials >= 1", file=sys.stderr)
        return 2
    config = RunConfig(command="bench", input=args.input, format=args.format,
                       k_list=k_values, rank=args.rank, output=args.output,
                       seed=args.seed, threads=args.threads, trials=args.trials,
                       compare_greedy=args.compare_greedy,
                       weight_range=args.weight_range,
                       oracle_cap=args.oracle_cap)
    g, _ = load(args.input, format=args.format)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for k in k_values:
        for trial in range(args.trials):
            timings: dict[str, float] = {}
            ranking = _resolve_rank_spec(g, args.rank, k=k,
                                         seed=args.seed + trial,
                                         workers=args.threads)
            t0 = perf_counter()
            h, _, result = coarsen_pipeline(g, k, ranking=ranking,
                                            workers=args.threads,
                                            timings=timings)
            total = perf_counter() - t0
            rows.append({
                "k": k, "trial": trial, "n": g.n, "m": g.m,
                "coarse_n": h.graph.n, "coarse_m": h.graph.m,
                "ratio": h.graph.n / g.n if g.n else 0.0,
                "t_rank": timings["ranking"], "t_kmis": timings["kmis"],
                "t_reduce": timings["reduce"], "t_total": total,
            })
    with open(outdir / "bench.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {config.to_json()}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for k in k_values:
        k_rows = [r for r in rows if r["k"] == k]
        mean_total = float(np.mean([r["t_total"] for r in k_rows]))
        median_total = float(np.median([r["t_total"] for r in k_rows]))
        print(f"k={k} ratio={k_rows[0]['ratio']:.4f} "
              f"t_total mean={mean_total:.4f}s median={median_total:.4f}s")

    if args.compare_greedy:
        compare_rows = []
        for k in k_values:
            for rule in oracle.RULES:
                try:
                    report = oracle.compare(
                        g, k, rule, trials=args.trials, weight_low=weight_low,
                        weight_high=weight_high, seed=args.seed,
                        oracle_cap=args.oracle_cap, workers=args.threads)
                except ValueError as exc:
                    print(f"k={k} rule={rule}: skipped ({exc})", file=sys.stderr)
                    continue
                for row in report.rows:
                    compare_rows.append({
                        "graph": args.input, "k": k, "rule": rule,
                        "trial": row.trial,
                        "greedy_weight": row.greedy_weight,
                        "ours_weight": row.ours_weight,
                        "bound_rhs": row.bound_rhs,
                        "ratio_rhs": "" if row.ratio_rhs is None else row.ratio_rhs,
                    })
                print(f"k={k} rule={rule} greedy_mean={report.greedy_weight:.1f} "
                      f"ours_mean={report.ours_weight:.1f} "
                      f"ours/greedy={report.ours_weight / report.greedy_weight:.4f}")
                for violation in report.bound_violations:
                    print(f"k={k} rule={rule}: BOUND VIOLATION {violation}",
                          file=sys.stderr)
        if compare_rows:
            with open(outdir / "compare.csv", "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(f"# config: {config.to_json()}\n")
                writer = csv.DictWriter(fh, fieldnames=list(compare_rows[0].keys()))
                writer.writeheader()
                writer.writerows(compare_rows)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
