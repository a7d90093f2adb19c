import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from minorcolor import Graph
from minorcolor.generators import GenSpec, complete_multipartite, generate
from minorcolor.graph import _bits
from minorcolor.planar import _blocks, _embed_block, _too_many_edges, rotation_system

from conftest import graphs, grid, is_plane_rotation, petersen


def _icosahedron() -> Graph:
    """Apex 0, upper ring 1..5, lower ring 6..10, apex 11."""
    edges = [(0, i) for i in range(1, 6)] + [(11, i) for i in range(6, 11)]
    for i in range(5):
        edges += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5)]
        edges += [(1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return Graph(range(12), edges)


def _wagner() -> Graph:
    """V8: the 8-cycle with its four long diagonals."""
    return Graph(range(8), [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def _subdivided_k5() -> Graph:
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    return Graph(range(15), [e for i, (u, v) in enumerate(pairs) for e in ((u, 5 + i), (v, 5 + i))])


PLANAR = {
    **{f"grid{r}x{c}": grid(r, c) for r, c in [(1, 1), (1, 4), (2, 2), (3, 5), (4, 4), (5, 5), (6, 6)]},
    "stacked_triangulation_n40": generate(GenSpec("planar_triangulation", n=40, seed=0)),
    "cycle7": Graph.cycle(7),
    "tree10": Graph(range(10), [(i, (i - 1) // 2) for i in range(1, 10)]),
    "wheel8": Graph(range(8), [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)]),
    "octahedron": complete_multipartite((2, 2, 2)),
    "icosahedron": _icosahedron(),
    "empty": Graph(()),
}

NON_PLANAR = {
    "K5": Graph.complete(5),
    "K33": complete_multipartite((3, 3)),
    "petersen": petersen(),
    "wagner_V8": _wagner(),
    "subdivided_K5": _subdivided_k5(),
    "K33_plus_isolated": Graph(range(7), complete_multipartite((3, 3)).edges()),
    "K5_with_pendant_triangle": Graph(range(7), Graph.complete(5).edges() + [(4, 5), (5, 6), (4, 6)]),
}


@pytest.mark.parametrize("g", PLANAR.values(), ids=PLANAR.keys())
def test_planar_graphs_get_a_plane_rotation(g):
    rotation = rotation_system(dict(g._adj))
    assert rotation is not None
    assert is_plane_rotation(dict(g._adj), rotation)


@pytest.mark.parametrize("g", NON_PLANAR.values(), ids=NON_PLANAR.keys())
def test_non_planar_graphs_get_none(g):
    assert rotation_system(dict(g._adj)) is None


def test_icosahedron_is_five_regular_with_thirty_edges():
    ico = _icosahedron()
    assert ico.m == 30 and all(len(ico.neighbors(v)) == 5 for v in ico.vertices)


@given(graphs(max_n=9), st.data())
@settings(max_examples=200, deadline=None)
def test_deleting_an_edge_keeps_a_planar_graph_planar(g, data):
    if rotation_system(dict(g._adj)) is None or not g.m:
        return
    edges = g.edges()
    edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    h = Graph(g.vertices, edges)
    rotation = rotation_system(dict(h._adj))
    assert rotation is not None
    assert is_plane_rotation(dict(h._adj), rotation)


@given(graphs(max_n=9), st.data())
@settings(max_examples=200, deadline=None)
def test_adding_an_edge_keeps_a_non_planar_graph_non_planar(g, data):
    missing = [(u, v) for u in g.vertices for v in g.vertices if u < v and not g.has_edge(u, v)]
    if rotation_system(dict(g._adj)) is not None or not missing:
        return
    h = Graph(g.vertices, g.edges() + [data.draw(st.sampled_from(missing))])
    assert rotation_system(dict(h._adj)) is None


@given(graphs(max_n=9), st.data())
@settings(max_examples=200, deadline=None)
def test_relabelling_with_gaps_keeps_the_verdict(g, data):
    ids = data.draw(st.lists(st.integers(0, 40), min_size=g.n, max_size=g.n, unique=True))
    relabel = dict(zip(g.vertices, ids))
    h = Graph(ids, [(relabel[u], relabel[v]) for u, v in g.edges()])
    before = rotation_system(dict(g._adj))
    after = rotation_system(dict(h._adj))
    assert (before is None) == (after is None)
    if after is not None:
        assert is_plane_rotation(dict(h._adj), after)


@given(graphs(max_n=9))
@settings(max_examples=200, deadline=None)
def test_counting_culls_reject_only_what_path_addition_rejects(g):
    adj = dict(g._adj)
    if g.n >= 3 and g.m >= g.n and _too_many_edges(adj, g.n, g.m):
        assert any(
            _embed_block({v: adj[v] & block for v in _bits(block)}) is None
            for block in _blocks(adj)
            if block.bit_count() > 2
        )
