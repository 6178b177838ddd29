"""Edgelist fast path against the line loop, CSR assembly against its
oracle, and the Matrix Market reader against the edgelist reader."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcoarsen.graph
from kcoarsen import GraphFormatError, build, load, store

from . import helpers

INT64_MAX = 2**63 - 1

# ids of at most 15 characters, which every fast-path file may hold
_SHORT_IDS = st.one_of(st.integers(-60, 60), st.integers(-10**14, 10**14))
_IDS = st.one_of(_SHORT_IDS, st.integers(INT64_MAX - 40, INT64_MAX),
                 st.integers(-INT64_MAX - 1, -INT64_MAX + 40))
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_WEIGHTS = st.one_of(_POSITIVE.map(repr), _POSITIVE.map("{:e}".format),
                     _POSITIVE.map("{:.3E}".format), st.integers(1, 10**6).map(str))
_SEPS = st.sampled_from([" ", "  ", "\t", " \t "])
# tokens the line loop may accept or reject, but the fast path must not read
_ODD_IDS = st.sampled_from(["+5", "1_000", "007", "-0", "1.0", "1e3", "٣",
                            "x", "5-3", "-", "--1", "99999999999999999999"])
_ODD_WEIGHTS = st.sampled_from(["+1.5", "1_0.5", "inf", "nan", "-1", "0", "0.0",
                                "1e999", "1e-400", ".5", "5.", "1.5.5", "1e",
                                "e5", "1e+-5", "x", "1.5e3.5"])
_ODD_LINES = st.sampled_from(["", "   ", "\t", "# note", "% note", "  # indented",
                              "1", "1 2 3 4", "3 4 2.5 x"])


@st.composite
def edgelist_texts(draw):
    """Edgelist file text: clean files as kcoarsen writes them, or files
    with blank lines, CRLF, odd tokens, mixed columns and comments."""
    clean = draw(st.booleans())
    weighted = draw(st.booleans())
    ids = _SHORT_IDS.map(str) if clean else st.one_of(_IDS.map(str), _ODD_IDS)
    weights = _WEIGHTS if clean else st.one_of(_WEIGHTS, _ODD_WEIGHTS)
    rows = draw(st.lists(st.tuples(ids, _SEPS, ids, _SEPS, weights,
                                   st.sampled_from(["", " ", "\t"])), max_size=10))
    lines = [f"{lead}{a}{s}{b}" + (f"{t}{w}" if weighted else "")
             for a, s, b, t, w, lead in rows]
    if rows and draw(st.booleans()):  # a duplicate in the other orientation
        a, s, b, t, w, lead = draw(st.sampled_from(rows))
        lines.append(f"{b}{s}{a}" + (f"{t}{w}" if weighted else ""))
    if not clean:
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.one_of(_ODD_LINES, st.tuples(ids, ids).map(" ".join))))
    header = draw(st.lists(st.sampled_from(["# config: {\"k\": 2}", "% kcoarsen", "#"]),
                           max_size=2))
    end = "\n" if clean else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(f"{line}{end}" for line in header + lines)
    if not clean and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def load_with_line_loop(path):
    with mock.patch.object(kcoarsen.graph, "_fast_edgelist", lambda data: None):
        return load(path)


def same_weights(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@given(edgelist_texts())
@example("# config: {}\n0 1 1.0\n1 2 0.30000000000000004\n2 0 1e-05\n")
@example("1 2\r\n2 3\r\n")
@example("\n1 2\n")
@example("1 2\n\n3 4 2.5\n")
@example(f"{INT64_MAX} {-INT64_MAX - 1}\n-3 {INT64_MAX}\n")
@example("1 2\n5-3 -\n")
@example("1 2 1.5.5\n3 4 1e\n")
@example("1 2\n3 4 5\n")
@example("1 2\n99999999999999999999 3\n")
@example("-9223372036854775809 1\n")
@settings(max_examples=300, deadline=None)
def test_fast_path_reads_what_the_line_loop_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edgelist") / "g.edgelist"
    path.write_bytes(text.encode("utf-8"))
    fast = kcoarsen.graph._fast_edgelist(path.read_bytes())
    try:
        expected, expected_ids = load_with_line_loop(path)
    except GraphFormatError as exc:
        assert fast is None
        with pytest.raises(type(exc)) as got:
            load(path)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "lineno", None) == getattr(exc, "lineno", None)
        return
    g, ids = load(path)
    assert g == expected and same_weights(g.weights, expected.weights)
    assert ids.dtype == expected_ids.dtype and np.array_equal(ids, expected_ids)
    if fast is not None:
        ends, w = kcoarsen.graph._line_edgelist(path)
        assert np.array_equal(fast[0], ends) and same_weights(fast[1], w)


@pytest.mark.parametrize("text", [
    "0 1\n1 2\n",
    "# config: {\"input\": \"g\"}\n# dense_id original_id\n0 10\n1 -20\n",
    "% header\n 3\t4 \n-5  6\n",
    "1 2 1.0\n2 3 0.1\n3 1 1e-05\n4 5 1.5e+16\n5 6 7\n6 7 +2.5\n",
    "-99999999999999999 99999999999999999\n",  # 18 characters fit int64
    "-99999999999999 99999999999999 0.5\n",  # 15 fit a float64 mantissa
])
def test_fast_path_takes_plain_files(text):
    assert kcoarsen.graph._fast_edgelist(text.encode()) is not None


@pytest.mark.parametrize("text", [
    "", "# only a header\n", "0 1", "0 1\r\n", "0 1\n\n2 3\n", "0 1\n# late\n",
    "0 1\n2 3 1.0\n", "0 1 2 3\n", "1_000 2\n", "0 1 inf\n", "0 1 nan\n",
    "0 1 0.0\n", "0 1 -1.0\n", "0 1 1e999\n", "1.0 2\n", "1 2e3 1.0\n",
    "1 5-3\n", "0 1 1.5.5\n", "0 1 1e\n", "0 1 .5.\n",
    "999999999999999999999 1\n", "-999999999999999999 1\n",
    "9999999999999999 1 1.0\n", "# café\n0 1\n", "#\r0 1\n", "0 1\f\n",
])
def test_fast_path_leaves_other_files_to_the_line_loop(text):
    assert kcoarsen.graph._fast_edgelist(text.encode()) is None


def test_writers_output_takes_the_fast_path(tmp_path):
    g = build([(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 1e-12), (3, 0, 2.0), (0, 2, 1e300)])
    for graph in (g, build([(0, 1), (1, 2)])):
        path = tmp_path / "g.edgelist"
        store(graph, path, header_lines=["config: {\"k\": 2}", "second"])
        assert kcoarsen.graph._fast_edgelist(path.read_bytes()) is not None
        back, ids = load(path)
        assert back == graph and ids.tolist() == list(range(graph.n))
        assert same_weights(back.weights, graph.weights)


def test_write_table_formats_each_value_like_the_line_writer(tmp_path):
    ints = np.array([5, -3, 5, 2**62, 0], dtype=np.int64)
    floats = np.array([0.1, 1e-05, 0.1, 1.5e16, 2.0])
    path = tmp_path / "t.txt"
    kcoarsen.graph.write_table(path, ["a", "b c"], np.arange(5), ints, floats)
    rows = "".join(f"{i} {a} {x!r}\n" for i, (a, x) in
                   enumerate(zip(ints.tolist(), floats.tolist())))
    assert path.read_text() == "# a\n# b c\n" + rows


def test_write_table_chunks_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(kcoarsen.graph, "WRITE_CHUNK", 3)
    path = tmp_path / "t.txt"
    kcoarsen.graph.write_table(path, [], np.arange(8), np.arange(8) * 2)
    assert path.read_text() == "".join(f"{i} {2 * i}\n" for i in range(8))


@st.composite
def endpoint_arrays(draw):
    """(u, v, w, n): duplicates in both orientations, self-loops, isolated
    nodes, and weights whose sums depend on the order of addition."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), None, 0
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    if pairs:  # repeat some pairs in the other orientation
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    w = None
    if draw(st.booleans()):
        value = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 1e16, 3.0, 1 / 3]), _POSITIVE)
        w = np.array(draw(st.lists(value, min_size=len(pairs), max_size=len(pairs))))
    return u, v, w, n


@given(endpoint_arrays())
@example((np.empty(0, np.int64), np.empty(0, np.int64), None, 0))
@example((np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]), 5))
@example((np.array([2, 1, 1]), np.array([1, 2, 1]), np.array([0.1, 0.2, 0.3]), 3))
@example((np.zeros(20, np.int64), np.ones(20, np.int64),
          np.array([0.1, 1e16, 0.3, 1.0] * 5), 2))
@settings(max_examples=300, deadline=None)
def test_build_arrays_matches_two_lexsort_oracle(case):
    u, v, w, n = case
    g = kcoarsen.graph._build_arrays(u, v, w, n)
    indptr, indices, weights = helpers.csr_reference(u, v, w, n)
    assert np.array_equal(g.indptr, indptr) and g.indptr.dtype == indptr.dtype
    assert np.array_equal(g.indices, indices) and g.indices.dtype == indices.dtype
    assert same_weights(g.weights, weights)
    assert g.m == indices.size // 2


def test_build_arrays_sums_many_parallel_weights_in_input_order():
    # large enough that an unstable sort reorders equal keys
    rng = np.random.default_rng(3)
    u, v = rng.integers(0, 30, size=(2, 5000))
    w = rng.random(5000) * 10.0 ** rng.integers(-3, 17, size=5000)
    g = kcoarsen.graph._build_arrays(u, v, w, 30)
    indptr, indices, weights = helpers.csr_reference(u, v, w, 30)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert same_weights(g.weights, weights)


def test_build_arrays_guards_key_overflow():
    with pytest.raises(ValueError, match="overflow int64"):
        kcoarsen.graph._build_arrays(np.array([0]), np.array([1]), None, 2**32)


@st.composite
def one_graph_two_files(draw):
    """(Matrix Market text, edgelist text, ids, field): one graph on nodes
    1..n, whose edgelist names node i by ids[i - 1]."""
    n = draw(st.integers(1, 12))
    field = draw(st.sampled_from(["pattern", "real", "integer"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] != p[1]), max_size=3 * n, unique_by=lambda p: (min(p), max(p))))
    value = {"pattern": st.just(""),
             "real": st.floats(min_value=0, exclude_min=True,
                               allow_infinity=False).map(lambda w: f" {w!r}"),
             "integer": st.integers(1, 10**9).map(lambda w: f" {w}")}[field]
    # a self-loop per node puts every id in the edgelist; both readers drop it
    edges = [(i, j, draw(value)) for i, j in pairs + [(v, v) for v in range(1, n + 1)]]
    entries = []
    for i, j, w in edges:
        ends = [(max(i, j), min(i, j))] if symmetry == "symmetric" else draw(
            st.sampled_from([[(i, j)], [(j, i)], [(i, j), (j, i)]]))
        entries += [f"{a} {b}{w}" for a, b in ends]
    entries = draw(st.permutations(entries))
    mm = (f"%%MatrixMarket matrix coordinate {field} {symmetry}\n% comment\n"
          f"{n} {n} {len(entries)}\n" + "".join(f"{e}\n" for e in entries))
    lines = [f"{ids[a - 1]} {ids[b - 1]}{w}"
             for i, j, w in edges for a, b in [draw(st.sampled_from([(i, j), (j, i)]))]]
    edgelist = "".join(f"{line}\n" for line in draw(st.permutations(lines)))
    return mm, edgelist, ids, field


@given(one_graph_two_files())
@settings(max_examples=200, deadline=None)
def test_matrix_market_loads_as_its_edgelist(tmp_path_factory, case):
    mm, edgelist, ids, field = case
    folder = tmp_path_factory.mktemp("two-files")
    (folder / "g.mtx").write_text(mm)
    (folder / "g.edgelist").write_text(edgelist)
    g_mm, ids_mm = load(folder / "g.mtx", format="mm")
    g_el, ids_el = load(folder / "g.edgelist")
    assert ids_mm.tolist() == list(range(1, len(ids) + 1))
    assert ids_el.tolist() == sorted(ids)
    # through the id maps: Matrix Market node i is edgelist id ids[i - 1]
    at = np.searchsorted(ids_el, np.array(ids, dtype=np.int64))
    u, v, w = g_mm.edge_list()
    relabeled = kcoarsen.graph._build_arrays(at[u], at[v], w, g_mm.n)
    assert relabeled == g_el and same_weights(relabeled.weights, g_el.weights)
    assert g_el.weighted == (field != "pattern")
