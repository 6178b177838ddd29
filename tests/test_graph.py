"""Graph construction, file formats, BFS, graph powers, components."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcoarsen.graph
from kcoarsen import Graph, GraphFormatError, build, load, store
from kcoarsen.graph import as_node_weights, bfs, connected_components, power

from . import helpers


def test_build_path():
    g = build([(0, 1), (1, 2)])
    assert (g.n, g.m) == (3, 2)
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert not g.weighted


def test_build_drops_self_loops_and_merges_parallels():
    g = build([(0, 1), (1, 0), (1, 1), (1, 2)])
    assert g.m == 2
    u, v, w = g.edge_list()
    assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (1, 2)]
    assert w is None


def test_build_sums_parallel_weights():
    g = build([(0, 1, 2.0), (1, 0, 3.0)])
    assert g.m == 1
    assert g.weights.tolist() == [5.0, 5.0]


def test_build_rejects_parallel_weights_summing_past_float64():
    with pytest.raises(ValueError, match="float64"):
        build([(0, 1, 1e308), (1, 0, 1e308)])


def fold_cases():
    """(keys, weights): empty, one long run, and random keys with the
    self-loops' -1 and other negative keys among them; the weights span
    sixteen orders of magnitude, so a sum depends on its order."""
    rng = np.random.default_rng(11)
    yield np.empty(0, dtype=np.int64), np.empty(0)
    yield np.full(5000, 7), rng.random(5000) * 10.0 ** rng.integers(-8, 9, size=5000)
    for size in (1, 30, 400):
        keys = rng.integers(-3, 40, size=size)
        yield keys, rng.random(size) * 10.0 ** rng.integers(-8, 9, size=size)


@pytest.mark.parametrize("how", ["sum", "max", "min", "mean"])
def test_fold_matches_a_pure_python_fold(how):
    for keys, weights in fold_cases():
        for w in (weights, None):
            items = zip(keys.tolist(), weights.tolist() if w is not None
                        else [1.0] * keys.size)
            want = helpers.fold_reference(((key, x) for key, x in items if key >= 0), how)
            got_keys, got = kcoarsen.graph._fold(
                keys.copy(), None if w is None else w.copy(), how, overflow="overflow")
            assert got_keys.tolist() == sorted(want)
            assert [x.hex() for x in got.tolist()] == [want[key].hex() for key in sorted(want)]
            if w is None:
                assert kcoarsen.graph._fold(keys.copy(), None, None)[1] is None


def test_build_missing_weight_defaults_to_one():
    g = build([(0, 1, 2.5), (1, 2)])
    _, _, w = g.edge_list()
    assert w.tolist() == [2.5, 1.0]


def test_build_isolated_nodes_via_n():
    g = build([(0, 1)], n=4)
    assert g.n == 4
    assert g.degrees.tolist() == [1, 1, 0, 0]


@pytest.mark.parametrize(
    "edges, n",
    [([(0, 5)], 3), ([(-1, 0)], None), ([(0, 1, 0.0)], None), ([(0, 1, -2.0)], None),
     ([(0, 1, np.inf)], None), ([(0,)], None), ([(0, 1, 1.0, 2)], None)],
)
def test_build_rejects_bad_input(edges, n):
    with pytest.raises((ValueError, GraphFormatError)):
        build(edges, n=n)


def test_graph_equality_ignores_isolated_tail():
    a = build([(0, 1)], n=2)
    b = build([(0, 1)], n=3)
    assert a != b
    assert a == build([(1, 0)])
    assert a.__eq__((0, 1)) is NotImplemented and a != (0, 1)
    assert build([(0, 1), (1, 2)]) != build([(0, 1), (0, 2)])  # same n and m
    assert build([(0, 1, 1.0)]) != a and a != build([(0, 1, 1.0)])


@pytest.mark.parametrize("fields, message", [
    ((2, 1, [0, 1], [1, 0]), "indptr must have length n \\+ 1"),
    ((2, 1, [0, 1, 2], [1]), "indices must have length 2 \\* m"),
    ((2, 1, [0, 1, 2], [1, 0], [1.0]), "weights must align with indices"),
])
def test_graph_rejects_misshapen_arrays(fields, message):
    with pytest.raises(ValueError, match=message):
        Graph(*(np.array(x) if isinstance(x, list) else x for x in fields))


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25
            ),
        )
    )
)
def test_build_normalization_is_idempotent(case):
    n, edges = case
    g = build(edges, n=n)
    u, v, _ = g.edge_list()
    assert build(list(zip(u.tolist(), v.tolist())), n=n) == g
    canon = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    assert g.m == len(canon)


def test_load_edgelist_remaps_ids(tmp_path):
    p = tmp_path / "g.edgelist"
    p.write_text("# comment\n% also comment\n10 30\n30 20\n")
    g, ids = load(p)
    assert ids.tolist() == [10, 20, 30]
    assert g.n == 3
    u, v, _ = g.edge_list()
    assert list(zip(u.tolist(), v.tolist())) == [(0, 2), (1, 2)]


def test_load_edgelist_weighted(tmp_path):
    p = tmp_path / "g.edgelist"
    p.write_text("0 1 0.5\n1 2 4\n")
    g, _ = load(p)
    _, _, w = g.edge_list()
    assert w.tolist() == [0.5, 4.0]


def test_load_edgelist_reports_line_number(tmp_path):
    p = tmp_path / "bad.edgelist"
    p.write_text("0 1\nnot numbers\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load(p)


def test_load_edgelist_rejects_nonpositive_weight(tmp_path):
    p = tmp_path / "bad.edgelist"
    p.write_text("0 1 -3.0\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load(p)


def test_load_empty_edgelist(tmp_path):
    p = tmp_path / "empty.edgelist"
    p.write_text("# nothing\n")
    g, ids = load(p)
    assert (g.n, g.m) == (0, 0)
    assert ids.size == 0


def test_load_matrix_market_symmetric_pattern(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% path on three nodes\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )
    g, ids = load(p, format="mm")
    assert ids.tolist() == [1, 2, 3]
    assert g == build([(0, 1), (1, 2)])


def test_load_matrix_market_general_mirrors_agree(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 7.0\n"
        "2 1 7.0\n"
    )
    g, _ = load(p, format="mm")
    assert g.m == 1
    assert g.weights.tolist() == [7.0, 7.0]


def test_load_matrix_market_general_mirror_conflict(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 7.0\n"
        "2 1 8.0\n"
    )
    with pytest.raises(GraphFormatError, match="conflicting duplicate"):
        load(p, format="mm")


def test_load_matrix_market_keeps_isolated_rows(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 1\n1 2\n"
    )
    g, ids = load(p, format="mm")
    assert g.n == 5
    assert ids.tolist() == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "text, message",
    [
        ("%%MatrixMarket matrix array real general\n1 1 0\n", "coordinate"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 0\n", "field"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n", "symmetry"),
        ("%%MatrixMarket matrix coordinate real general\n2 3 0\n", "square"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n", "entries"),
        ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 3\n", "bounds"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 inf\n", "finite"),
        ("%%MatrixMarket matrix coordinate integer symmetric\n-1 -1 0\n", "non-negative"),
        ("%%MatrixMarket matrix coordinate integer general\n2 2 -1\n", "non-negative"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n1 1 3.0\n",
         "conflicting duplicate"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n2 1\n",
         "expected 3 fields"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2 1.0\n2 1 1.0\n",
         "expected 2 fields"),
    ],
)
def test_load_matrix_market_rejects(tmp_path, text, message):
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=message):
        load(p, format="mm")


def test_matrix_market_hash_lines_are_comments(tmp_path):
    """'#' lines count as comments in a Matrix Market file, as '%' lines
    and blank lines do, before the size line and among the entries."""
    plain = tmp_path / "plain.mtx"
    plain.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                     "3 3 2\n2 1 0.5\n3 2 4.0\n")
    commented = tmp_path / "commented.mtx"
    commented.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                         "# made by hand\n3 3 2\n2 1 0.5\n# the last entry\n3 2 4.0\n")
    (g, ids), (expected, expected_ids) = load(commented, "mm"), load(plain, "mm")
    assert g == expected and ids.tolist() == expected_ids.tolist() == [1, 2, 3]


@pytest.mark.parametrize("between", ["", "% a comment\n"])  # fast path, line loop
def test_matrix_market_entry_errors_name_their_line(tmp_path, between):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate pattern general\n% made by hand\n"
                 f"3 3 3\n1 2\n\n{between}2 3\n3 4\n")
    with pytest.raises(GraphFormatError, match="entry out of bounds: '3 4'") as exc:
        load(p, format="mm")
    assert exc.value.lineno == 7 + bool(between)


def test_load_unknown_format(tmp_path):
    p = tmp_path / "g.edgelist"
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="format"):
        load(p, format="graphml")


def _stored_graphs():
    """(n, edges) with every edge weighted or none; weights stay finite
    when build sums duplicates."""
    def edges_for(n, weighted):
        pair = (st.integers(0, n - 1), st.integers(0, n - 1))
        if weighted:
            pair += (st.floats(min_value=0.0, max_value=1e300, exclude_min=True),)
        return st.lists(st.tuples(*pair), max_size=25)

    return st.tuples(st.integers(1, 12), st.booleans()).flatmap(
        lambda nw: st.tuples(st.just(nw[0]), edges_for(*nw)))


@given(_stored_graphs())
@example((4, [(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 1e-12)]))
@settings(max_examples=60, deadline=None)
def test_store_load_round_trip_exact(tmp_path_factory, case):
    n, edges = case
    g = build(edges, n=n)
    p = tmp_path_factory.mktemp("round_trip") / "g.edgelist"
    store(g, p)
    back, ids = load(p)

    def keyed(u, v, w):
        weights = w.tolist() if w is not None else [None] * u.size
        return dict(zip(zip(u.tolist(), v.tolist()), weights))

    # store drops isolated nodes, so compare edges through load's id map
    u, v, w = back.edge_list()
    assert keyed(ids[u], ids[v], w) == keyed(*g.edge_list())
    assert back.m == g.m


def test_store_header_lines(tmp_path):
    g = build([(0, 1)])
    p = tmp_path / "g.edgelist"
    store(g, p, header_lines=("run: demo",))
    assert p.read_text().startswith("# run: demo\n")


def bfs_row(g, s, max_depth=None):
    """Distances from s to every node, through the pair search."""
    return bfs(g, np.full(g.n, s), np.arange(g.n), max_depth=max_depth)


def test_bfs_path():
    g = build(helpers.path_edges(5))
    assert bfs_row(g, 0).tolist() == [0, 1, 2, 3, 4]
    assert bfs_row(g, 2).tolist() == [2, 1, 0, 1, 2]


def test_bfs_unreachable_sentinel():
    g = build([(0, 1), (2, 3)])
    d = bfs_row(g, 0)
    assert d.dtype == np.int64
    assert d[2] == d[3] == g.n
    assert d.tolist() == [0, 1, 4, 4]


def test_bfs_max_depth():
    g = build(helpers.path_edges(6))
    d = bfs_row(g, 0, max_depth=2)
    assert d.tolist() == [0, 1, 2, 6, 6, 6]


def test_bfs_matches_reference_on_corpus(small_corpus):
    for g, edges, n in small_corpus[:12]:
        adj = helpers.adjacency(n, edges)
        sources = np.arange(0, n, 3)
        got = bfs(g, np.repeat(sources, n), np.tile(np.arange(n), sources.size))
        expect = [helpers.bfs_dists(adj, s).get(v, g.n)
                  for s in sources.tolist() for v in range(n)]
        assert got.tolist() == expect


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_bfs_distance_symmetry(data):
    n = data.draw(st.integers(2, 12))
    edges = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    )
    g = build(edges, n=n)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    forward, backward = bfs(g, [u, v], [v, u])
    assert forward == backward


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_bfs_pairs_match_reference(data):
    n = data.draw(st.integers(1, 140), label="n")
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=150), label="edges")
    drawn = data.draw(st.lists(st.tuples(node, node), max_size=40), label="pairs")
    max_depth = data.draw(st.sampled_from([None, 0, 1, 2, 3, 4]), label="depth")
    # duplicates, source == target, and every node once as a source, so
    # graphs above BFS_BATCH nodes run more than one batch
    pairs = drawn + drawn + [(0, 0)] + [(s, (7 * s + 3) % n) for s in range(n)]
    g = build(edges, n=n)
    adj = helpers.adjacency(n, edges)
    got = bfs(g, [s for s, _ in pairs], [t for _, t in pairs], max_depth=max_depth)
    expect = []
    for s, t in pairs:
        d = helpers.bfs_dists(adj, s).get(t, n)
        expect.append(n if max_depth is not None and d > max_depth else d)
    assert got.tolist() == expect


@pytest.mark.parametrize("max_depth", [None, 10])
def test_bfs_grid_runs_sparse_and_dense_levels(monkeypatch, max_depth):
    side = 60
    g = build(helpers.grid_edges(side, side))
    rng = np.random.default_rng(3)
    sources = rng.integers(0, g.n, size=600)
    targets = rng.integers(0, g.n, size=600)
    dense_levels = []
    real = kcoarsen.graph.neighbor_reduce

    def spy(*args, **kwargs):
        dense_levels.append(kwargs.get("rows") is None)
        return real(*args, **kwargs)

    monkeypatch.setattr(kcoarsen.graph, "neighbor_reduce", spy)
    got = bfs(g, sources, targets, max_depth=max_depth)
    expect = (np.abs(sources // side - targets // side)
              + np.abs(sources % side - targets % side))
    if max_depth is not None:
        expect[expect > max_depth] = g.n
    assert got.tolist() == expect.tolist()
    assert np.unique(sources).size > 64  # several batches
    assert set(dense_levels) == {True, False}


def test_bfs_rejects_bad_pairs():
    g = build(helpers.path_edges(5))
    with pytest.raises(ValueError, match="source -1"):
        bfs(g, [0, -1], [1, 2])
    with pytest.raises(ValueError, match="target 5"):
        bfs(g, [0, 1], [5, 2])
    with pytest.raises(ValueError, match="same length"):
        bfs(g, [0, 1], [2])
    with pytest.raises(ValueError, match="max_depth"):
        bfs(g, [0], [1], max_depth=-1)


def test_power_cycle():
    g = build(helpers.cycle_edges(6))
    g2 = power(g, 2)
    assert g2.degrees.tolist() == [4] * 6
    adj = helpers.adjacency(6, helpers.cycle_edges(6))
    u, v, _ = g2.edge_list()
    assert list(zip(u.tolist(), v.tolist())) == helpers.power_edges(adj, 2)


def test_power_matches_reference(small_corpus):
    """Every k from 1 to 3 and on until the power stops growing, on graphs
    of one and of several BFS_BATCH source batches, one with isolated nodes."""
    rng = helpers.make_rng("power")
    cases = [(edges, n) for _, edges, n in small_corpus[:10]] + [
        (helpers.random_edges(rng, 63, 0.08), 63),
        (helpers.path_edges(64), 64),
        (helpers.cycle_edges(65), 65),
        (helpers.random_edges(rng, 100, 0.03), 130),  # 100..129 isolated
    ]
    for edges, n in cases:
        g = build(edges, n=n)
        adj = helpers.adjacency(n, edges)
        k, last, want = 0, None, None
        while k < 3 or want != last:
            k, last, want = k + 1, want, helpers.power_edges(adj, k + 1)
            u, v, _ = power(g, k).edge_list()
            assert list(zip(u.tolist(), v.tolist())) == want, (n, k)


def test_power_one_drops_weights():
    g = build([(0, 1, 5.0)])
    g1 = power(g, 1)
    assert g1.m == 1 and not g1.weighted


def test_power_saturates_at_diameter():
    g = build(helpers.path_edges(6))
    complete = build([(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert power(g, 5) == complete
    assert power(g, 9) == complete


def test_power_respects_oracle_cap():
    g = build(helpers.cycle_edges(30))
    with pytest.raises(ValueError, match="cap"):
        power(g, 3, oracle_cap=10)


def bfs_labelling(n, edges):
    """Component labels numbered by smallest member, from helpers BFS."""
    adj = helpers.adjacency(n, edges)
    labels = [-1] * n
    count = 0
    for v in range(n):
        if labels[v] == -1:
            for u in helpers.bfs_dists(adj, v):
                labels[u] = count
            count += 1
    return count, labels


def test_connected_components_counts(corpus):
    assert connected_components(build(helpers.path_edges(5)))[0] == 1
    g = build([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    count, labels = connected_components(g)
    assert count == 2
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert connected_components(build([], n=4))[0] == 4
    assert connected_components(build([], n=0))[0] == 0

    cases = [(n, edges) for _, edges, n in corpus[:60]]
    # a path with shuffled ids needs many hooks to reach its smallest id
    rng = helpers.make_rng("components-path")
    ids = list(range(3000))
    rng.shuffle(ids)
    cases.append((3000, [(ids[i], ids[i + 1]) for i in range(2999)]))
    cases.append((3000, [(ids[i], ids[i + 1]) for i in range(2999) if i % 7]))
    for n, edges in cases:
        count, labels = connected_components(build(edges, n=n))
        assert (count, labels.tolist()) == bfs_labelling(n, edges)
        assert labels.dtype == np.int64


def test_node_weights_validation():
    with pytest.raises(ValueError):
        as_node_weights(np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError, match="finite"):
        as_node_weights(np.array([1.0, np.inf]), 2)
    with pytest.raises(ValueError):
        as_node_weights([1.0, 2.0], 3)
    with pytest.raises(ValueError, match="one-dimensional"):
        as_node_weights(np.ones((3, 1)), 3)
    assert as_node_weights([1, 1, 1], 3).tolist() == [1.0, 1.0, 1.0]


def test_graph_arrays_are_frozen():
    g = build([(0, 1)])
    with pytest.raises(ValueError):
        g.indices[0] = 5


def test_degrees_are_computed_once_and_frozen():
    g = build([(0, 1), (1, 2)])
    assert g.degrees is g.degrees
    with pytest.raises(ValueError):
        g.degrees[0] = 5
