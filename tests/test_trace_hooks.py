"""The benchmark's tracer must still find every name it wraps.

perfbench/tracing.py patches functions at the names their callers look
up (``kcoarsen.cli._resolve_rank_spec``, ``kcoarsen.coarsen.k_mis``, ...).
A refactor that renames or bypasses one of them leaves its span empty
and the per-layer metric silently reads 0; this test fails instead.
"""

import importlib.util
import sys
from pathlib import Path

from kcoarsen.cli import main

from . import helpers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_fires_and_is_restored(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    inp = tmp_path / "grid.edgelist"
    inp.write_text("".join(f"{u} {v}\n" for u, v in helpers.king_grid_edges(6, 6)))
    out = tmp_path / "run"
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracing.PATCHES]

    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["coarsen", "-i", str(inp), "-k", "2", "--rank", "kdeg",
                     "--threads", "1", "-o", str(out)]) == 0
        assert main(["verify", "-i", str(inp), "-k", "2", "--threads", "1",
                     "--artifacts", str(out)]) == 0

    spans = tracer.spans
    recorded = {span.name for span in spans}
    missing = {name for _, _, name, _ in tracing.PATCHES} - recorded
    assert not missing, f"hooked names never called: {sorted(missing)}"
    # "sweep" is hooked in three modules; each must see its own sweeps
    sweep_parents = {spans[s.parent].name for s in spans
                     if s.name == "sweep" and s.parent is not None}
    assert {"ranking.rank", "kmis.select", "coarsen.cluster"} <= sweep_parents
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr} not restored"
