"""Edgelist fast path against the line loop, CSR assembly against its
oracle, and the Matrix Market reader against the edgelist reader."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcoarsen.graph
from kcoarsen import GraphFormatError, build, load, store
from kcoarsen._propagate import ARC_BLOCK

from . import helpers
from .test_cli_inputs import mutate

INT64_MAX = 2**63 - 1

# ids of at most 15 characters, as clean files hold them
_SHORT_IDS = st.one_of(st.integers(-60, 60), st.integers(-10**14, 10**14))
# ids of 16 to 19 characters, up to int64's full width
_LONG_IDS = st.one_of(st.integers(10**15, INT64_MAX), st.integers(-10**18 + 1, -10**14))
_IDS = st.one_of(_SHORT_IDS, st.integers(INT64_MAX - 40, INT64_MAX),
                 st.integers(-INT64_MAX - 1, -INT64_MAX + 40))
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_WEIGHTS = st.one_of(_POSITIVE.map(repr), _POSITIVE.map("{:e}".format),
                     _POSITIVE.map("{:.3E}".format), st.integers(1, 10**6).map(str))
_SEPS = st.sampled_from([" ", "  ", "\t", " \t "])
# characters that str.split and numpy's tokenizer could split on differently
_ODD_SPACES = st.sampled_from(["\0", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
                               "\x85", "\xa0", "\u2028"])
# tokens the line loop may accept or reject, but the fast path must not read
_ODD_IDS = st.sampled_from(["+5", "1_000", "007", "-0", "1.0", "1e3", "٣",
                            "x", "5-3", "-", "--1", "99999999999999999999"])
_ODD_WEIGHTS = st.sampled_from(["+1.5", "1_0.5", "inf", "nan", "-1", "0", "0.0",
                                "1e999", "1e-400", ".5", "5.", "1.5.5", "1e",
                                "e5", "1e+-5", "x", "1.5e3.5"])
_ODD_LINES = st.sampled_from(["", "   ", "\t", "# note", "% note", "  # indented",
                              "1", "1 2 3 4", "3 4 2.5 x", "\f", "\x1c", "\0",
                              "\u2028", "\xa0# note", "\xa0 \x85"])


@st.composite
def edgelist_texts(draw):
    """Edgelist file text: clean files as kcoarsen writes them, or files
    with blank lines, CRLF, odd tokens, mixed columns and comments."""
    clean = draw(st.booleans())
    weighted = draw(st.booleans())
    ids = (st.one_of(_SHORT_IDS, _LONG_IDS).map(str) if clean
           else st.one_of(_IDS.map(str), _LONG_IDS.map(str), _ODD_IDS))
    weights = _WEIGHTS if clean else st.one_of(_WEIGHTS, _ODD_WEIGHTS)
    seps = _SEPS if clean else st.one_of(_SEPS, _ODD_SPACES)
    leads = st.sampled_from(["", " ", "\t"])
    rows = draw(st.lists(st.tuples(ids, seps, ids, seps, weights,
                                   leads if clean else st.one_of(leads, _ODD_SPACES)),
                         max_size=10))
    lines = [f"{lead}{a}{s}{b}" + (f"{t}{w}" if weighted else "")
             for a, s, b, t, w, lead in rows]
    if rows and draw(st.booleans()):  # a duplicate in the other orientation
        a, s, b, t, w, lead = draw(st.sampled_from(rows))
        lines.append(f"{b}{s}{a}" + (f"{t}{w}" if weighted else ""))
    if not clean:
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.one_of(_ODD_LINES, st.tuples(ids, ids).map(" ".join))))
    heads = ["# config: {\"k\": 2}", "% kcoarsen", "#"]
    if not clean:  # a '\r' inside a header line ends it for the line loop
        heads += ["#\r", "# a\r1 2", "%\r# b", "# \x85\u2028"]
    header = draw(st.lists(st.sampled_from(heads), max_size=2))
    end = "\n" if clean else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(f"{line}{end}" for line in header + lines)
    if not clean and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def load_with_line_loop(path):
    with mock.patch.object(kcoarsen.graph, "_fast_edgelist", lambda *args: None):
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
@example("# a\r1 2\n\n0 0\n")  # the line loop reads "1 2" after the '\r'
@settings(max_examples=300, deadline=None)
def test_fast_path_reads_what_the_line_loop_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edgelist") / "g.edgelist"
    path.write_bytes(text.encode("utf-8"))
    fast = kcoarsen.graph._fast_edgelist(path)
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


# plain files with no final newline, CRLF, a blank line, ids of 19 characters,
# a non-ASCII comment or a form feed
_NEWLY_TAKEN = ["0 1", "0 1\r\n", "0 1\n\n2 3\n", "-999999999999999999 1\n",
                "9999999999999999 1 1.0\n", "# café\n0 1\n", "0 1\f\n"]


@pytest.mark.parametrize("text", [
    "0 1\n1 2\n",
    "# config: {\"input\": \"g\"}\n# dense_id original_id\n0 10\n1 -20\n",
    "% header\n 3\t4 \n-5  6\n",
    "1 2 1.0\n2 3 0.1\n3 1 1e-05\n4 5 1.5e+16\n5 6 7\n6 7 +2.5\n",
    "-99999999999999999 99999999999999999\n",  # 18 characters fit int64
    "-99999999999999 99999999999999 0.5\n",  # 15 fit a float64 mantissa
    *_NEWLY_TAKEN,
])
def test_fast_path_takes_plain_files(tmp_path, text):
    path = tmp_path / "g.edgelist"
    path.write_bytes(text.encode())
    assert kcoarsen.graph._fast_edgelist(path) is not None


@pytest.mark.parametrize("text", _NEWLY_TAKEN)
def test_fast_path_reads_newly_taken_files_as_the_line_loop(tmp_path, text):
    path = tmp_path / "g.edgelist"
    path.write_bytes(text.encode())
    (ends, w), (expected, expected_w) = (kcoarsen.graph._fast_edgelist(path),
                                         kcoarsen.graph._line_edgelist(path))
    assert ends.dtype == expected.dtype and np.array_equal(ends, expected)
    assert same_weights(w, expected_w)


@pytest.mark.parametrize("text", [
    "", "# only a header\n", "0 1\n# late\n",
    "0 1\n2 3 1.0\n", "0 1 2 3\n", "1_000 2\n", "0 1 inf\n", "0 1 nan\n",
    "0 1 0.0\n", "0 1 -1.0\n", "0 1 1e999\n", "1.0 2\n", "1 2e3 1.0\n",
    "1 5-3\n", "0 1 1.5.5\n", "0 1 1e\n", "0 1 .5.\n",
    "999999999999999999999 1\n", "#\r0 1\n",
])
def test_fast_path_leaves_other_files_to_the_line_loop(tmp_path, text):
    path = tmp_path / "g.edgelist"
    path.write_bytes(text.encode())
    assert kcoarsen.graph._fast_edgelist(path) is None


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("spread", [1, 10**12])  # a presence array, a search
def test_line_loop_and_fast_path_load_the_same_graph(tmp_path, weighted, spread):
    """Both paths renumber the ids in place over several blocks of rows,
    and build the CSR the two-lexsort oracle builds, self-loops and
    repeated edges included."""
    rng = np.random.default_rng([spread, weighted])
    n = 4_000
    u, v = rng.integers(0, n, size=(2, 3 * ARC_BLOCK))
    ids = rng.permutation(n) * spread - n
    w = rng.random(u.size) * 10.0 ** rng.integers(-3, 4, size=u.size)
    path = tmp_path / "g.edgelist"
    path.write_text("".join(f"{a} {b}" + (f" {x!r}\n" if weighted else "\n")
                            for a, b, x in zip(ids[u].tolist(), ids[v].tolist(),
                                               w.tolist())))
    assert kcoarsen.graph._fast_edgelist(path) is not None
    g, got_ids = load(path)
    slow, slow_ids = load_with_line_loop(path)
    assert g == slow and same_weights(g.weights, slow.weights)
    assert np.array_equal(got_ids, slow_ids)
    assert np.array_equal(got_ids, np.unique(ids[np.concatenate([u, v])]))
    dense = np.searchsorted(got_ids, ids)
    indptr, indices, weights = helpers.csr_reference(
        dense[u], dense[v], w if weighted else None, got_ids.size)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert same_weights(g.weights, weights)


def test_writers_output_takes_the_fast_path(tmp_path):
    g = build([(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 1e-12), (3, 0, 2.0), (0, 2, 1e300)])
    for graph in (g, build([(0, 1), (1, 2)])):
        path = tmp_path / "g.edgelist"
        store(graph, path, header_lines=["config: {\"k\": 2}", "second"])
        assert kcoarsen.graph._fast_edgelist(path) is not None
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


_ANY_INT64 = st.one_of(st.integers(-12, 12), st.integers(-2**63, 2**63 - 1),
                      st.sampled_from([-2**63, -2**63 + 1, 2**63 - 1, -10**18, 10**18,
                                       -(10**18) + 1, 10**18 - 1, 9, 10, -9, -10]))
_ANY_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                        1e16, 1.5e16, -1e16, 1e-5, 3e-05, 0.1, 1 / 3]))


@st.composite
def table_columns(draw):
    """1 to 4 int64 or float64 columns of one length, 0 to 40 rows."""
    rows = draw(st.integers(0, 40))
    return [np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)
            for values, dtype in draw(st.lists(st.sampled_from(
                [(_ANY_INT64, np.int64), (_ANY_FLOAT, np.float64)]), min_size=1, max_size=4))]


@given(table_columns(), st.integers(1, 5), st.lists(st.text("ab {}:", max_size=5),
                                                    max_size=2))
@example([np.array([0.0, -0.0]), np.array([-0.0, 0.0])], 1, [])
@example([np.array([-2**63, 2**63 - 1, 0], dtype=np.int64)], 2, ["h"])
@example([np.empty(0, np.int64), np.empty(0)], 1, ["only a header"])
@settings(max_examples=300, deadline=None)
def test_write_table_matches_a_line_writer(tmp_path_factory, columns, chunk, header):
    path = tmp_path_factory.mktemp("table") / "t.txt"
    with mock.patch.object(kcoarsen.graph, "WRITE_CHUNK", chunk):
        kcoarsen.graph.write_table(path, header, *columns)
    want = "".join(f"# {line}\n" for line in header) + "".join(
        " ".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in zip(*(col.tolist() for col in columns)))
    assert path.read_bytes() == want.encode()


@given(st.lists(st.integers(-4, 4) | st.integers(-2**63, 2**63 - 1), max_size=30),
       st.sampled_from([np.int64, np.int32, np.float64]))
@settings(max_examples=200, deadline=None)
def test_distinct_values_match_np_unique(values, dtype):
    col = np.array(values, dtype=np.int64)
    if dtype != np.int64:  # narrow or float columns take small values only
        col = (col % 9).astype(dtype)
    got, at = kcoarsen.graph._distinct(col)
    want, want_at = np.unique(col, return_inverse=True)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(at, want_at)


@pytest.mark.parametrize("values, whole", [
    ([1.0, 2.0, 1.0, 7.0], True),
    ([3.0, 2.0**53 - 1, 3.0], True),
    ([1.0, 2.0**53, 1.0], False),  # past 2**53 a float64 skips integers
    ([1.0, 0.5, 2.0], False),
    ([1.0, 0.0, -0.0, 2.0], False),  # 0.0 and -0.0 print apart
    ([2.0, -3.0], False),
    ([], True),
])
def test_float_cells_group_positive_integers_by_value(values, whole, monkeypatch):
    """A column of positive integers below 2**53 groups by its int64 values,
    any other by bit pattern; both print each value's repr."""
    grouped = []
    real = kcoarsen.graph._distinct

    def spy(col):
        grouped.append(col)
        return real(col)

    monkeypatch.setattr(kcoarsen.graph, "_distinct", spy)
    col = np.array(values, dtype=np.float64)
    text = b"".join(kcoarsen.graph.table_text([col], " "))
    assert text == "".join(f"{x!r}\n" for x in values).encode()
    want = col.astype(np.int64) if whole else col.view(np.int64)
    assert len(grouped) == 1 and np.array_equal(grouped[0], want)


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


@pytest.mark.parametrize("u, v, w, n", [
    ([], [], None, 0),
    ([], [], [], 0),
    ([], [], None, 1),
    ([0], [0], [1.5], 1),  # a self-loop only
    ([0], [1], None, 2),
    ([1], [0], [2.5], 2),
    ([2, 0, 2], [0, 2, 0], [0.1, 0.2, 0.3], 3),  # node 1 isolated
])
def test_in_place_csr_edge_cases_match_reference(u, v, w, n):
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    w = None if w is None else np.array(w, dtype=np.float64)
    with np.errstate(all="raise"):  # an integer % 0 would raise, not warn
        g = kcoarsen.graph._build_arrays(u, v, w, n)
    indptr, indices, weights = helpers.csr_reference(u, v, w, n)
    assert np.array_equal(g.indptr, indptr) and g.indptr.dtype == np.int64
    assert np.array_equal(g.indices, indices) and g.indices.dtype == np.int64
    if w is None:
        assert g.weights is None
    else:
        assert g.weights.dtype == np.float64 and np.array_equal(g.weights, weights)


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


@st.composite
def matrix_market_files(draw):
    """A Matrix Market file of any field and symmetry as bytes: entries in
    the lower triangle when symmetric, diagonal entries and stored pairs
    that repeat, mirrored or not, with agreeing or conflicting values."""
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    n = draw(st.integers(1, 6))
    value = {"pattern": st.just(""), "integer": st.sampled_from([" 1", " 3"]),
             "real": st.sampled_from([" 1.5", " 0.1", " 7e3"])}[field]
    entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), value),
                            max_size=2 * n))
    if entries and draw(st.booleans()):  # a stored pair again, mirrored or not
        i, j, _ = draw(st.sampled_from(entries))
        entries.append((j, i, draw(value)) if draw(st.booleans()) else (i, j, draw(value)))
    if symmetry == "symmetric":
        entries = [(max(i, j), min(i, j), w) for i, j, w in entries]
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% comment",
             f"{n} {n} {len(entries)}", *(f"{i} {j}{w}" for i, j, w in entries)]
    return ("\n".join(lines) + "\n").encode()


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_matrix_market_reads_as_the_reference_loop(tmp_path_factory, data):
    """Under token, line and byte edits, a Matrix Market file gives the
    verdict of the per-entry reference loop and, when accepted, its graph
    (the two-lexsort CSR) and ids 1..n."""
    path = tmp_path_factory.mktemp("mm") / "g.mtx"
    path.write_bytes(mutate(data, data.draw(matrix_market_files(), label="file")))
    expected = helpers.matrix_market_reference(path)
    try:
        g, ids = load(path, format="mm")
    except ValueError:  # a GraphFormatError, an n too large or a bad byte
        assert expected is None
        return
    assert expected is not None
    n, stored, weighted = expected
    assert ids.dtype == np.int64 and ids.tolist() == list(range(1, n + 1))
    u = np.array([i for i, _ in stored], dtype=np.int64)
    v = np.array([j for _, j in stored], dtype=np.int64)
    w = np.array(list(stored.values()), dtype=np.float64) if weighted else None
    indptr, indices, weights = helpers.csr_reference(u, v, w, n)
    assert g.n == n and np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices) and same_weights(g.weights, weights)
