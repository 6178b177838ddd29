import pytest

from kcoarsen import build

from . import helpers


def _corpus(count, sizes, probs, seed_tag):
    """Seeded random graphs as (graph, edges, n) triples."""
    out = []
    for i in range(count):
        rng = helpers.make_rng(seed_tag, i)
        n = rng.randrange(sizes[0], sizes[1] + 1)
        p = probs[i % len(probs)]
        edges = helpers.random_edges(rng, n, p)
        out.append((build(edges, n=n), edges, n))
    return out


@pytest.fixture(scope="session")
def corpus():
    """200 random graphs, n in [5, 50], edge prob cycling 0.05/0.2/0.5."""
    return _corpus(200, (5, 50), (0.05, 0.2, 0.5), "corpus")


@pytest.fixture(scope="session")
def small_corpus():
    """50 graphs sized for quadratic checks."""
    return _corpus(50, (5, 30), (0.1, 0.3, 0.6), "small")


@pytest.fixture(scope="session")
def fixture_graphs():
    """Named structured graphs: paths, cycles, stars, grids, disconnected."""
    named = {
        "path5": helpers.path_edges(5),
        "path12": helpers.path_edges(12),
        "cycle6": helpers.cycle_edges(6),
        "cycle9": helpers.cycle_edges(9),
        "star8": helpers.star_edges(8),
        "grid6x6": helpers.king_grid_edges(6, 6),
        "two_triangles": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        "path_plus_isolated": helpers.path_edges(4),
    }
    graphs = {}
    for name, edges in named.items():
        n = 6 if name == "path_plus_isolated" else None
        g = build(edges, n=n)
        graphs[name] = (g, edges, g.n)
    return graphs
