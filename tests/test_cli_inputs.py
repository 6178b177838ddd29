"""The whole CLI input surface, in-process, on generated and mutated files.

Whatever the bytes of the graph (edgelist or Matrix Market), the `file:`
score list and the artifact directory: `coarsen` exits 0 or 2, `verify`
exits 1 only when it prints a violation line, and every exit 2 prints
exactly one `error:` line on stderr and no traceback.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kcoarsen.cli import main

TOKENS = [b"-1", b"0", b"1_0", b"+2", b"1.5", b"nan", b"inf", b"1e308",
          b"1e-400", b"x", b"", b"99999999999999999999",
          b"-9223372036854775809", "٣".encode(), b"#", b"%",
          b"%%MatrixMarket"]
LINES = [b"", b"# note", b"%", b"1", b"1 2 3 4", b"a b", b"1 1", b"2 3 -1",
         b"1 2 1e308", b"\t"]
BYTES = [b"\xff", b"\r", b"\x00", b"\t", b" ", b"\n", b"#", b"-", b".", b"e"]
# no digit is ever inserted: a mutated size line stays small or overflows


def mutate(data, blob: bytes) -> bytes:
    """Up to three edits: a token, line or byte replaced, dropped or added."""
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        edit = data.draw(st.sampled_from(
            ["token", "drop", "dup", "insert", "byte", "cut"]), label="edit")
        lines = blob.split(b"\n")
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        if edit == "token":
            tokens = lines[at].split(b" ")
            i = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[i] = data.draw(st.sampled_from(TOKENS), label="new token")
            lines[at] = b" ".join(tokens)
        elif edit == "drop":
            del lines[at]
        elif edit == "dup":
            lines.insert(at, lines[at])
        elif edit == "insert":
            lines.insert(at, data.draw(st.sampled_from(LINES), label="new line"))
        blob = b"\n".join(lines)
        if edit == "byte":
            pos = data.draw(st.integers(0, len(blob)), label="at")
            blob = blob[:pos] + data.draw(st.sampled_from(BYTES), label="byte") + blob[pos:]
        elif edit == "cut":
            blob = blob[:data.draw(st.integers(0, len(blob)), label="cut at")]
    return blob


def graph_file(data, n: int) -> tuple[bytes, str]:
    """A random graph on nodes 1..n as an edgelist or Matrix Market file."""
    pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                               max_size=2 * n), label="edges")
    weights = data.draw(st.none() | st.sampled_from(["1", "2.5", "0.1", "7e3"]),
                        label="weight")
    if data.draw(st.booleans(), label="matrix market"):
        field = "pattern" if weights is None else "real"
        entries = sorted({(max(u, v), min(u, v)) for u, v in pairs})
        lines = [f"%%MatrixMarket matrix coordinate {field} symmetric",
                 f"{n} {n} {len(entries)}"]
        lines += [f"{i} {j}" + ("" if weights is None else f" {weights}")
                  for i, j in entries]
        fmt = "mm"
    else:
        # every node on some line, so the file's ids are 1..n
        pairs += [(v, v) for v in range(1, n + 1)]
        lines = [f"{u} {v}" + ("" if weights is None else f" {weights}")
                 for u, v in pairs]
        fmt = "edgelist"
    return ("\n".join(lines) + "\n").encode(), fmt


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def check(command: str, code: int, err: str) -> None:
    lines = err.splitlines()
    assert "Traceback" not in err
    assert code in ((0, 2) if command == "coarsen" else (0, 1, 2)), err
    if code == 1:
        assert any(line.startswith("violation [") for line in lines), err
    if code == 2:
        assert sum(line.startswith("error:") for line in lines) == 1, err


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_input_exits_0_1_or_2_as_documented(data):
    n = data.draw(st.integers(1, 8), label="n")
    graph, fmt = graph_file(data, n)
    scores = "".join(f"{x!r}\n" for x in data.draw(
        st.lists(st.floats(-10, 10), min_size=n, max_size=n), label="scores"))
    k = data.draw(st.integers(0, 3), label="k")
    rank = data.draw(st.sampled_from(["kdeg", "kweight", "id", "random", "file"]),
                     label="rank")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inp, score_path, out = tmp / "graph", tmp / "scores.txt", tmp / "out"
        inp.write_bytes(mutate(data, graph))
        score_path.write_bytes(mutate(data, scores.encode()))
        common = ["-i", inp, "-f", fmt, "-k", k, "--threads", "1", "--rank",
                  f"file:{score_path}" if rank == "file" else rank]

        code, err = run_cli(["coarsen", *common, "-o", out])
        check("coarsen", code, err)
        check("verify", *run_cli(["verify", *common]))
        if code == 0:
            name = data.draw(st.sampled_from(
                ["assignment.txt", "centroids.txt", "coarse.edgelist"]), label="artifact")
            artifact = out / name
            if data.draw(st.booleans(), label="delete"):
                artifact.unlink()
            else:
                artifact.write_bytes(mutate(data, artifact.read_bytes()))
            check("verify", *run_cli(["verify", *common, "--artifacts", out]))
