"""Outside-in tracing of one in-process CLI run.

The tracer wraps each layer's public functions at the names their
callers look up.  The modules bind them with ``from ... import``, so a
patch on the defining module alone would measure nothing: ``load`` is
wrapped as ``kcoarsen.cli.load``, ``k_mis`` as ``kcoarsen.coarsen.k_mis``
and so on.  Spans (name, start, end, parent) and per-span attributes
stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import kcoarsen.cli
import kcoarsen.coarsen
import kcoarsen.kmis
import kcoarsen.ranking
import kcoarsen.verify


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sweep_attrs(args, kwargs, result) -> dict:
    g = args[0]
    rows = kwargs.get("rows")
    if rows is None:
        return {"rows": g.n, "edges": int(g.indptr[-1])}
    # a dirty-region sweep, restricted to a row subset, visits only those
    rows = np.asarray(rows)
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    return {"rows": int(rows.size),
            "edges": int((g.indptr[rows + 1] - g.indptr[rows]).sum())}


def _kmis_attrs(args, kwargs, result) -> dict:
    return {"n": args[0].n, "rounds": int(result.rounds),
            "selected": int(result.selected.size)}


def _reduce_attrs(args, kwargs, result) -> dict:
    return {"coarse_n": int(result.graph.n), "coarse_m": int(result.graph.m)}


# (module, attribute, span name, attribute extractor)
PATCHES = [
    (kcoarsen.cli, "load", "graph.load", None),
    (kcoarsen.cli, "store", "graph.store", None),
    (kcoarsen.cli, "_resolve_rank_spec", "ranking.rank", None),
    (kcoarsen.ranking, "neighbor_reduce", "sweep", _sweep_attrs),
    (kcoarsen.coarsen, "k_mis", "kmis.select", _kmis_attrs),
    (kcoarsen.kmis, "neighbor_reduce", "sweep", _sweep_attrs),
    (kcoarsen.coarsen, "cluster", "coarsen.cluster", None),
    (kcoarsen.coarsen, "neighbor_reduce", "sweep", _sweep_attrs),
    (kcoarsen.coarsen, "reduce", "coarsen.reduce", _reduce_attrs),
    (kcoarsen.verify, "check_edge_bounds", "verify.edge_bounds", None),
    (kcoarsen.verify, "check_distortion", "verify.distortion", None),
    (kcoarsen.verify, "check_components", "verify.components", None),
    (kcoarsen.verify, "check_kmis_validity", "verify.validity", None),
    (kcoarsen.verify, "bfs", "graph.bfs", None),
]


class Tracer:
    """Records nested spans of single-threaded calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(),
                        parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = perf_counter()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point in PATCHES; restore them on exit."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in PATCHES]
        try:
            for (module, attr, name, attrs), (_, _, fn) in zip(PATCHES,
                                                               originals):
                setattr(module, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for s in self.spans]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced coarsen run and one traced verify run."""
    spans = tracer.spans
    own = tracer.self_seconds()

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def sweeps_under(name: str) -> list[Span]:
        return [s for s in spans if s.name == "sweep"
                and s.parent is not None and spans[s.parent].name == name]

    select = [s for s in spans if s.name == "kmis.select"]
    select_sweeps = sweeps_under("kmis.select")
    rows = sum(s.attrs["rows"] for s in select_sweeps)
    edges = sum(s.attrs["edges"] for s in select_sweeps)
    sweep_s = sum(s.seconds for s in select_sweeps)
    n = sum(s.attrs["n"] for s in select)
    rounds = sum(s.attrs["rounds"] for s in select)
    reduced = [s for s in spans if s.name == "coarsen.reduce"]
    return {
        "graph.load_s": total("graph.load"),
        "graph.store_s": total("graph.store"),
        "graph.bfs_calls": sum(s.name == "graph.bfs" for s in spans),
        "graph.bfs_s": total("graph.bfs"),
        "ranking.rank_s": total("ranking.rank"),
        "ranking.sweeps": len(sweeps_under("ranking.rank")),
        "kmis.select_s": total("kmis.select"),
        "kmis.rounds": rounds,
        "kmis.sweeps": len(select_sweeps),
        "kmis.rows_visited": rows,
        "kmis.useful_ratio": n / rows if rows else 0.0,
        "kmis.edges_per_s": edges / sweep_s if sweep_s else 0.0,
        "kmis.picks_per_round": (sum(s.attrs["selected"] for s in select)
                                 / rounds if rounds else 0.0),
        "coarsen.cluster_s": total("coarsen.cluster"),
        "coarsen.reduce_s": total("coarsen.reduce"),
        "coarsen.coarse_n": sum(s.attrs["coarse_n"] for s in reduced),
        "coarsen.coarse_m": sum(s.attrs["coarse_m"] for s in reduced),
        "cli.self_s": sum(own[i] for i, s in enumerate(spans)
                          if s.name == "cli.main"),
        "verify.edge_bounds_s": total("verify.edge_bounds"),
        "verify.distortion_s": total("verify.distortion"),
        "verify.components_s": total("verify.components"),
        "verify.validity_s": total("verify.validity"),
    }
