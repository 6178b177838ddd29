"""Seeded synthetic input graphs for the benchmark.

    python3 perfbench/generate.py NAME SEED PATH

writes input NAME for SEED to PATH, one ``u v`` edge per line, and
prints its n, m and SHA-256 as JSON.  The program under test sees only
that file.  Sizes are fixed, so the cost of a run does not depend on the
seed: the seed varies the random structure (social, uniform), the node
ids and the line order.

The benchmark runs this as a child process: on Linux a child's peak RSS
counts from its parent's RSS at fork, so the benchmark itself must stay
small and not load numpy.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

# Sized so that one coarsen child or one verify child takes 0.4-2 s on a
# 2-core x86 box.
MESH_SHAPE = (120, 100)
SOCIAL_N = 3_000
UNIFORM_N = 60_000
UNIFORM_SMALL_N = 4_000


def _mesh(rng: np.random.Generator) -> np.ndarray:
    """4-connected grid; ids are row-major, so kdeg ties break by row."""
    rows, cols = MESH_SHAPE
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    # an offset keeps the row-major order of the ids, and so the ties
    offset = int(rng.integers(0, 1_000_000))
    return np.concatenate([right, down]) + offset


def _simple(u: np.ndarray, v: np.ndarray, n: int,
            rng: np.random.Generator) -> np.ndarray:
    """Drop loops and duplicate edges, then shuffle the node ids."""
    keep = u != v
    a = np.minimum(u[keep], v[keep])
    b = np.maximum(u[keep], v[keep])
    key = np.unique(a * n + b)
    edges = np.stack([key // n, key % n], axis=1)
    return rng.permutation(n).astype(np.int64)[edges]


def _social(rng: np.random.Generator) -> np.ndarray:
    """Chung-Lu graph: endpoint probability ~ (i + 10)^(-1/(2.5 - 1))."""
    n = SOCIAL_N
    weight = (np.arange(n) + 10.0) ** (-1.0 / 1.5)
    p = weight / weight.sum()
    u = rng.choice(n, size=4 * n, p=p)
    v = rng.choice(n, size=4 * n, p=p)
    return _simple(u, v, n, rng)


def _uniform(n: int):
    def make(rng: np.random.Generator) -> np.ndarray:
        u = rng.integers(0, n, size=4 * n)
        v = rng.integers(0, n, size=4 * n)
        return _simple(u, v, n, rng)
    return make


GENERATORS = {"mesh": _mesh, "social": _social,
              "uniform": _uniform(UNIFORM_N),
              "uniform_small": _uniform(UNIFORM_SMALL_N)}


def generate(name: str, seed: int, path: Path) -> dict:
    """Write input `name` for `seed` to `path`; return n, m and digest."""
    rng = np.random.default_rng([seed] + [ord(c) for c in name])
    edges = GENERATORS[name](rng)
    edges = edges[rng.permutation(edges.shape[0])]
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    data = ("\n".join(f"{a} {b}" for a, b in edges.tolist()) + "\n").encode()
    path.write_bytes(data)
    return {"n": int(np.unique(edges).size), "m": int(edges.shape[0]),
            "input_sha256": hashlib.sha256(data).hexdigest()}


if __name__ == "__main__":
    name, seed, path = sys.argv[1:]
    print(json.dumps(generate(name, int(seed), Path(path))))
