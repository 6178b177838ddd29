"""Command-line interface: coarsen graphs, verify reductions, benchmark.

Exit codes: 0 on success, 1 when verification finds a violation, 2 on
usage or IO errors or a failed allocation.  Every output artifact embeds
the run configuration (including seeds), so a run can be reproduced from
any of its files.
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
from .coarsen import CoarsenedGraph, EDGE_AGGREGATIONS, coarsen_pipeline
from .graph import (DEFAULT_ORACLE_CAP, Graph, GraphFormatError, data_lines,
                    load, store, write_table, _create, _edge_keys,
                    _edge_table, _fast_edgelist, _fold, _id_pair)
# Called under its own name: perfbench/tracing.py wraps cli._resolve_rank_spec
# to time the ranking phase.
from .ranking import check_spec, resolve_ranking as _resolve_rank_spec
from .verify import DEFAULT_SAMPLE_PAIRS, verify_reduction

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
    pairs: int | None = None  # verify's pair sample, drawn only with --evidence
    trials: int | None = None
    compare_greedy: bool = False
    weight_range: str | None = None
    oracle_cap: int | None = None
    artifacts: str | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace, **override) -> "RunConfig":
        """A command's config: its parsed arguments, the fields it lacks
        at their defaults, then `override`."""
        given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                 if hasattr(args, f.name)}
        return cls(**{**given, **override})

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def _at_least(low: int):
    """An argparse type: an int of at least `low`, or a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _thread_count(text: str) -> int:
    """A --threads value, capped at the CPU count: extra threads only queue."""
    return min(_at_least(1)(text), os.cpu_count() or 1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", required=True, help="input graph file")
    parser.add_argument("-f", "--format", choices=["edgelist", "mm"],
                        default="edgelist", help="input format (default edgelist)")
    parser.add_argument("--rank", default="kweight",
                        help="ranking: kdeg, kweight, id, random, const, or file:PATH")
    parser.add_argument("--seed", type=_at_least(0), default=0,
                        help="seed for random rankings and sampling")
    parser.add_argument("--threads", type=_thread_count,
                        default=os.cpu_count() or 1,
                        help="worker count, capped at the CPU count and "
                             "recorded; every sweep runs on one thread, so "
                             "results do not depend on it")


def _add_coarsening(parser: argparse.ArgumentParser) -> None:
    """The coarsening arguments of coarsen and verify."""
    parser.add_argument("-k", type=_at_least(0), required=True,
                        help="independence radius; 0 is the identity coarsening")
    parser.add_argument("--edge-agg", choices=list(EDGE_AGGREGATIONS), default="sum",
                        help="crossing-edge weight aggregation")
    parser.add_argument("--node-agg", choices=list(_NODE_AGG_FLAGS), default="centroid",
                        help="node weight aggregation")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcoarsen",
        description="Coarsen graphs by contracting k-independent centroids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coarsen", help="coarsen a graph and write artifacts")
    _add_common(p)
    _add_coarsening(p)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_coarsen)

    p = sub.add_parser("verify", help="coarsen (or load artifacts) and check guarantees")
    _add_common(p)
    _add_coarsening(p)
    p.add_argument("--evidence", action="store_true",
                   help="also run the pair searches that the certificate "
                        "implies, and print every coarse edge's span and "
                        "the checked pairs' distances")
    p.add_argument("--pairs", type=_at_least(1), default=None,
                   help="with --evidence: sampled node pairs for distance "
                        f"checks on large graphs (default {DEFAULT_SAMPLE_PAIRS:,})")
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
    p.add_argument("--trials", type=_at_least(1), default=10,
                   help="repetitions per k (and greedy trials)")
    p.add_argument("--compare-greedy", action="store_true",
                   help="also run the sequential greedy baseline on the "
                        "explicit power graph")
    p.add_argument("--weight-range", default="1:100",
                   help="uniform node-weight range LO:HI for greedy trials")
    p.add_argument("--oracle-cap", type=_at_least(1), default=DEFAULT_ORACLE_CAP,
                   help="largest n for which the power graph may be built")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)
    return parser


def _write_coarsen_artifacts(outdir: Path, config: RunConfig,
                             original_ids: np.ndarray, h: CoarsenedGraph) -> None:
    config_line = f"config: {config.to_json()}"
    store(h, outdir / "coarse.edgelist", header_lines=[config_line])
    write_table(outdir / "assignment.txt", [config_line, "original_id centroid_id"],
                original_ids, original_ids[h.assignment])
    values = [] if h.node_values is None else [h.node_values]
    columns = "coarse_index centroid_id" + (" node_value" if values else "")
    write_table(outdir / "centroids.txt", [config_line, columns],
                np.arange(h.centroids.size), original_ids[h.centroids], *values)
    write_table(outdir / "node_ids.txt", [config_line, "dense_id original_id"],
                np.arange(original_ids.size), original_ids)
    with _create(outdir / "run_config.json", "w", encoding="utf-8") as fh:
        fh.write(config.to_json() + "\n")


def _rank_and_coarsen(g: Graph, config: RunConfig, k: int, seed: int,
                      timings: dict[str, float]):
    """`coarsen_pipeline` at k under `config`'s ranking, aggregations and
    threads, a random ranking drawn from `seed`.  The ranking is resolved
    here, by `_resolve_rank_spec` (const for k = 0), and its time is
    added to ``timings["ranking"]``."""
    t0 = perf_counter()
    rank = "const" if k == 0 else _resolve_rank_spec(
        g, config.rank, k=k, seed=seed, workers=config.threads)
    t_rank = perf_counter() - t0
    out = coarsen_pipeline(
        g, k, ranking=rank, edge_agg=config.edge_agg,
        node_agg=_NODE_AGG_FLAGS[config.node_agg], seed=seed,
        workers=config.threads, timings=timings)
    timings["ranking"] += t_rank
    return out


def cmd_coarsen(args) -> int:
    config = RunConfig.from_args(args)
    t0 = perf_counter()
    g, original_ids = load(args.input, format=args.format)
    t_load = perf_counter() - t0
    timings: dict[str, float] = {}
    h, _, result = _rank_and_coarsen(g, config, args.k, args.seed, timings)
    n, m = g.n, g.m
    del g  # free the input CSR (the pipeline freed its layout)
    t0 = perf_counter()
    _write_coarsen_artifacts(Path(args.output), config, original_ids, h)
    t_write = perf_counter() - t0
    ratio = result.selected.size / n if n else 0.0
    print(f"n={n} m={m} coarse_n={h.centroids.size} coarse_m={h.keys.size} "
          f"selected={result.selected.size} ratio={ratio:.4f} "
          f"rounds={result.rounds} "
          f"t_load={t_load:.4f}s "
          f"t_rank={timings['ranking']:.4f}s "
          f"t_select={timings.get('select', 0.0):.4f}s "
          f"t_cluster={timings.get('cluster', 0.0):.4f}s "
          f"t_reduce={timings.get('reduce', 0.0):.4f}s "
          f"t_write={t_write:.4f}s")
    return 0


def _id_columns(path: Path, more: bool) -> np.ndarray:
    """An artifact table's two leading integer columns, as (rows, 2): the
    edgelist fast path, else a line loop.  Only `more` allows more columns."""
    parsed = _fast_edgelist(path)
    if parsed is not None and (more or parsed[1] is None):
        return parsed[0]
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in data_lines(fh):
            if not more and len(line.split()) != 2:
                raise GraphFormatError(path, lineno, f"expected 'u v', got {line!r}")
            pairs.append(_id_pair(path, lineno, line))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_artifacts(artifacts: Path, g: Graph,
                    original_ids: np.ndarray) -> CoarsenedGraph:
    """Rebuild a coarsening from files written by cmd_coarsen.

    Raises ValueError unless every node has one assignment row, the
    centroid rows carry coarse indices 0..nc-1, each once, with centroid
    ids increasing by index (the writer's order), so the stored index is
    the one verified, and each coarse edge has one row, no self-loop.
    `_edge_keys` and `_fold` key the rows in any order and orientation.
    """
    def dense_of(originals: np.ndarray, path: Path) -> np.ndarray:
        """Dense indices of original ids, by binary search of the sorted ids."""
        at = np.searchsorted(original_ids, originals)
        known = at < original_ids.size
        known[known] = original_ids[at[known]] == originals[known]
        if not known.all():
            raise ValueError(f"{path}: unknown node id {originals[np.argmin(known)]}")
        return at

    assignment_path = artifacts / "assignment.txt"
    dense = dense_of(_id_columns(assignment_path, more=False).ravel(),
                     assignment_path)
    assignment = np.full(g.n, -1, dtype=np.int64)
    assignment[dense[0::2]] = dense[1::2]
    if (assignment < 0).any():
        raise ValueError("assignment file does not cover every node")
    if dense.size > 2 * g.n:  # every node has a row, so one has two
        repeated = original_ids[np.bincount(dense[0::2]).argmax()]
        raise ValueError(f"{assignment_path}: node id {repeated} is assigned more than once")

    centroids_path = artifacts / "centroids.txt"
    index, centroids = _id_columns(centroids_path, more=True).T
    centroids = dense_of(centroids, centroids_path)
    order = np.lexsort((centroids, index))
    index, centroids = index[order], centroids[order]
    if (not np.array_equal(index, np.arange(index.size))
            or np.any(np.diff(centroids) <= 0)):
        raise ValueError(f"{centroids_path}: coarse indices must run 0..nc-1 "
                         "with centroid ids increasing by index")

    # rows are coarse indices; isolated coarse nodes have none
    ends, w = _edge_table(artifacts / "coarse.edgelist")
    nc = centroids.size
    if ends.size and (ends.min() < 0 or ends.max() >= nc):
        raise ValueError("coarse edgelist references unknown coarse index")
    keys, weights = _fold(_edge_keys(ends[:, 0], ends[:, 1], nc), w,
                          None if w is None else "max")  # a lone max: the weight
    if keys.size < ends.shape[0]:  # a repeated row folds, a self-loop's -1 drops
        raise ValueError("coarse edgelist repeats an edge or holds a self-loop")
    return CoarsenedGraph(keys=keys, weights=weights, centroids=centroids,
                          assignment=assignment)


def cmd_verify(args) -> int:
    if args.pairs is not None and not args.evidence:
        raise ValueError("--pairs applies only with --evidence")
    pairs = args.pairs or DEFAULT_SAMPLE_PAIRS
    # the config records a pair sample only when the run draws one
    config = RunConfig.from_args(args, pairs=pairs if args.evidence else None)
    g, original_ids = load(args.input, format=args.format)
    selected = None
    if args.artifacts:
        h = _read_artifacts(Path(args.artifacts), g, original_ids)
    else:
        g.jagged  # built before the pipeline, so that bfs below reuses it
        h, _, result = _rank_and_coarsen(g, config, args.k, args.seed, {})
        selected = result.selected
    report = verify_reduction(g, h, args.k, selected=selected,
                              sample_pairs=pairs, seed=args.seed,
                              edge_agg=args.edge_agg, evidence=args.evidence)
    text = f"# config: {config.to_json()}\n{report.to_text()}"
    sys.stdout.write(text)
    if args.output:
        with _create(Path(args.output, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    if not report.passed:
        for section, violation in report.all_violations()[:20]:
            print(f"violation [{section}] {violation.kind} nodes={violation.nodes} "
                  f"observed={violation.observed} bound={violation.bound}",
                  file=sys.stderr)
        return 1
    return 0


def _write_csv(path: Path, config: RunConfig, rows: list[dict]) -> None:
    """`rows` as a CSV table under the run's `# config:` line."""
    with _create(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {config.to_json()}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_bench(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k_list.split(",") if tok]
        low_txt, high_txt = args.weight_range.split(":")
        weight_low, weight_high = float(low_txt), float(high_txt)
        if not 0 < weight_low <= weight_high < float("inf"):
            raise ValueError(args.weight_range)
    except ValueError:
        print("bad --k-list or --weight-range value", file=sys.stderr)
        return 2
    if not k_values or min(k_values) < 1:
        print("bench needs k values >= 1", file=sys.stderr)
        return 2
    config = RunConfig.from_args(args, k_list=k_values)
    g, _ = load(args.input, format=args.format)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    g.jagged  # built once: every trial's pipeline keeps it
    rows = []
    for k in k_values:
        for trial in range(args.trials):
            timings: dict[str, float] = {}
            t0 = perf_counter()
            h, _, _ = _rank_and_coarsen(g, config, k, args.seed + trial, timings)
            total = perf_counter() - t0
            rows.append({
                "k": k, "trial": trial, "n": g.n, "m": g.m,
                "coarse_n": h.centroids.size, "coarse_m": h.keys.size,
                "ratio": h.centroids.size / g.n if g.n else 0.0,
                "t_rank": timings["ranking"], "t_select": timings["select"],
                "t_cluster": timings["cluster"],
                "t_reduce": timings["reduce"], "t_total": total,
            })
    _write_csv(outdir / "bench.csv", config, rows)
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
            _write_csv(outdir / "compare.csv", config, compare_rows)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        check_spec(args.rank)  # before any input is read
        return args.func(args)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a --pairs sample larger than memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
