from collections import deque

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from minorcolor import (
    Coloring,
    Graph,
    contract_set,
    induced_subgraph,
    is_independent_set,
    is_proper_coloring,
    min_degree_vertex,
    parse_graph,
    without_vertex,
    write_edge_list,
)
from minorcolor.generators import GenSpec, generate
from minorcolor.graph import _Peel

from conftest import graphs, petersen


def test_basic_counts():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.vertices == (0, 1, 2, 3)
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.m == sum(g.degree(v) for v in g.vertices) // 2


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(range(3), [(1, 1)])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(range(3), [(0, 5)])
    # an endpoint is checked as has_vertex checks an id, so 1.0 is no vertex
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph(range(3), [(0, 1.0)])


def test_vertex_cap():
    # max_vertices refuses only when given, and bench/corpus.py passes it
    tri = generate(GenSpec("planar_triangulation", n=1600, seed=1))
    assert Graph(range(1600), tri.edges(), max_vertices=1600) == tri
    with pytest.raises(ValueError, match="^vertex id 64 exceeds the size cap 64$"):
        Graph(range(65), max_vertices=64)


def test_ids_have_no_default_cap():
    g = Graph.cycle(100)
    assert (g.n, g.m) == (100, 100)
    assert Graph.complete(65).m == 2080
    assert parse_graph(write_edge_list(g)) == g


def test_duplicate_edges_collapse():
    g = Graph(range(2), [(0, 1), (1, 0)])
    assert g.m == 1


def test_induced_subgraph_of_clique_is_clique():
    g = induced_subgraph(Graph.complete(4), [0, 1, 2])
    assert g.vertices == (0, 1, 2)
    assert g.m == 3


def test_induced_subgraph_of_cycle_edge():
    g = induced_subgraph(Graph.cycle(5), [1, 2])
    assert g.edges() == [(1, 2)]


def test_induced_subgraph_petersen_neighborhood_is_edgeless():
    # girth 5, so every neighborhood induces three isolated vertices
    p = petersen()
    for v in p.vertices:
        h = induced_subgraph(p, p.neighbors(v))
        assert h.n == 3 and h.m == 0


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(Graph.complete(3), [0, 7])


def test_contract_path_pair():
    g, z = contract_set(Graph.path(3), [0, 1])
    assert z == 0
    assert g.edges() == [(0, 2)]


def test_contract_opposite_cycle_vertices():
    # C4 0-1-2-3, merging {0,2} leaves a 3-vertex path centered at the
    # merged vertex and no 1-3 edge
    g, z = contract_set(Graph.cycle(4), [0, 2])
    assert z == 0
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 3)]


def test_contract_clique_pair():
    g, _ = contract_set(Graph.complete(5), [1, 3])
    assert (g.n, g.m) == (4, 6)


def test_contract_empty_set_rejected():
    with pytest.raises(ValueError):
        contract_set(Graph.complete(3), [])


def test_contract_keeps_survivor_ids():
    g, z = contract_set(Graph.path(4), [1, 2])
    assert z == 1
    assert g.vertices == (0, 1, 3)


def test_min_degree_star_leaf():
    star = Graph(range(5), [(0, i) for i in range(1, 5)])
    v, d = min_degree_vertex(star)
    assert d == 1 and v == 1  # lowest-id leaf


def test_min_degree_tie_break():
    assert min_degree_vertex(Graph.complete(4)) == (0, 3)
    assert min_degree_vertex(petersen()) == (0, 3)


def test_min_degree_empty_graph():
    with pytest.raises(ValueError):
        min_degree_vertex(Graph(()))


def test_proper_coloring_triangle():
    k3 = Graph.complete(3)
    assert is_proper_coloring(k3, Coloring({0: 0, 1: 1, 2: 2}, 3))
    assert not is_proper_coloring(k3, Coloring({0: 0, 1: 1, 2: 1}, 3))


def test_proper_coloring_partial_rejected():
    with pytest.raises(ValueError):
        is_proper_coloring(Graph.complete(3), Coloring({0: 0, 1: 1}, 2))


@given(graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_proper_coloring_matches_an_edge_scan(g, data):
    palette = data.draw(st.integers(1, 4))
    colors = data.draw(st.lists(st.integers(0, palette - 1), min_size=g.n, max_size=g.n))
    c = Coloring(dict(zip(g.vertices, colors)), palette)
    naive = all(c.assignment[u] != c.assignment[v] for u, v in g.edges())
    assert is_proper_coloring(g, c) == naive


def test_proper_coloring_allocates_nothing_per_palette_color():
    # --delta is unbounded, so the palette can be far larger than memory
    k3 = Graph.complete(3)
    huge = 2**62
    assert is_proper_coloring(k3, Coloring({0: 0, 1: huge - 1, 2: 2**40}, huge))
    assert not is_proper_coloring(k3, Coloring({0: 7, 1: huge - 1, 2: 7}, huge))


def test_forest_bfs_two_coloring_is_proper():
    tree = Graph(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    color = {}
    queue = deque([(0, 0)])
    while queue:
        v, c = queue.popleft()
        if v in color:
            continue
        color[v] = c
        for u in tree.neighbors(v):
            queue.append((u, 1 - c))
    assert is_proper_coloring(tree, Coloring(color, 2))


def test_independent_set_checks():
    c5 = Graph.cycle(5)
    assert is_independent_set(c5, [0, 2])
    assert not is_independent_set(Graph.complete(2), [0, 1])
    assert is_independent_set(Graph.empty(5), range(5))


@given(graphs(min_n=2))
def test_contract_shrinks(g):
    members = [v for v in g.vertices][:2]
    h, _ = contract_set(g, members)
    assert h.n == g.n - (len(members) - 1)
    assert h.m <= g.m


@given(graphs(), st.integers(0, 10_000))
def test_contract_any_subset_counts(g, pick):
    verts = g.vertices
    k = 1 + pick % g.n
    members = verts[:k]
    h, z = contract_set(g, members)
    assert z == min(members)
    assert h.n == g.n - (k - 1)
    assert h.m <= g.m
    for v in h.vertices:
        assert not (h.neighbor_mask(v) >> v) & 1


@given(graphs())
def test_min_degree_deterministic(g):
    assert min_degree_vertex(g) == min_degree_vertex(g)
    clone = Graph(g.vertices, g.edges())
    assert g == clone
    assert min_degree_vertex(clone) == min_degree_vertex(g)


@given(graphs(min_n=2), st.integers(0, 10_000))
def test_star_contraction_color_lift_round_trip(g, pick):
    """Coloring the contraction of a closed star {v} + T and copying the
    merged vertex's color back over T stays proper."""
    from minorcolor import greedy_degeneracy_color

    verts = g.vertices
    v = verts[pick % g.n]
    nbrs = list(g.neighbors(v))
    if not nbrs:
        return
    chosen = []
    taken_mask = 0
    for u in nbrs:  # greedy independent subset of the neighborhood
        if not (g.neighbor_mask(u) & taken_mask):
            chosen.append(u)
            taken_mask |= 1 << u
    merged, z = contract_set(g, set(chosen) | {v})
    base = greedy_degeneracy_color(merged)
    lifted = dict(base.assignment)
    for u in chosen:
        lifted[u] = base.assignment[z]
    used = {lifted[u] for u in nbrs if u in lifted}
    free = 0
    while free in used:
        free += 1
    lifted[v] = free
    assert is_proper_coloring(g, Coloring(lifted, max(lifted.values()) + 1))


def test_without_vertex():
    g = without_vertex(Graph.cycle(4), 2)
    assert g.vertices == (0, 1, 3)
    assert g.edges() == [(0, 1), (0, 3)]


# The working-graph kernel against a naive {vertex: set} reference.


@st.composite
def gapped_graphs(draw):
    """Graphs on up to 12 ids drawn from 0..40, so ids have gaps, at one of
    three densities."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    keep_from = draw(st.integers(1, 3))
    flags = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Graph(ids, [p for p, f in zip(pairs, flags) if f >= keep_from])


def _reference(g):
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _ref_delete(ref, v):
    for u in ref.pop(v):
        ref[u].discard(v)


def _ref_contract(ref, s):
    z = min(s)
    outside = set().union(*(ref[u] for u in s)) - s
    for u in s - {z}:
        del ref[u]
    for u in outside:
        ref[u] = (ref[u] - s) | {z}
    ref[z] = outside
    return z


def _ref_min_degree(ref):
    d, v = min((len(nbrs), v) for v, nbrs in ref.items())
    return v, d


def _as_masks(ref):
    return {v: sum(1 << u for u in nbrs) for v, nbrs in ref.items()}


def _mask(s):
    return sum(1 << v for v in s)


def _check_peel(peel, ref):
    assert peel.adj == _as_masks(ref)
    assert list(peel.adj) == sorted(ref)
    assert peel.deg == {v: mask.bit_count() for v, mask in peel.adj.items()}
    for d, bucket in enumerate(peel.buckets):
        assert bucket == _mask(v for v, dv in peel.deg.items() if dv == d)
    if ref:
        assert peel.min_degree() == _ref_min_degree(ref)


@st.composite
def _contracted_sets(draw, ref):
    """A non-empty vertex set: arbitrary (single vertices, adjacent or
    non-adjacent members, sets that are not connected), or a vertex with
    some of its neighbors."""
    verts = sorted(ref)
    if draw(st.booleans()):
        return draw(st.sets(st.sampled_from(verts), min_size=1))
    v = draw(st.sampled_from(verts))
    nbrs = sorted(ref[v])
    return {v} | (draw(st.sets(st.sampled_from(nbrs))) if nbrs else set())


@given(gapped_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_peel_delete_and_contract_match_naive_reference(g, data):
    ref = _reference(g)
    peel = _Peel(dict(g._adj))
    _check_peel(peel, ref)
    for _ in range(data.draw(st.integers(1, 12))):
        if not ref:
            break
        if data.draw(st.booleans()):
            v = data.draw(st.sampled_from(sorted(ref)))
            peel.delete(v)
            _ref_delete(ref, v)
        else:
            s = data.draw(_contracted_sets(ref))
            assert peel.contract(_mask(s)) == _ref_contract(ref, s)
        _check_peel(peel, ref)


# Ids 3..31 with gaps: a path 3-7-12-20, a triangle 20-25-31, vertex 9
# isolated.  The sets are a single vertex, adjacent members, non-adjacent
# members, and members in different components.
KERNEL_GRAPH = Graph(
    [3, 7, 9, 12, 20, 25, 31],
    [(3, 7), (7, 12), (12, 20), (20, 25), (20, 31), (25, 31)],
)


@pytest.mark.parametrize("s", [{12}, {7, 12}, {3, 12, 31}, {3, 9, 25}, {9}])
def test_peel_contract_kinds_of_sets(s):
    ref = _reference(KERNEL_GRAPH)
    peel = _Peel(dict(KERNEL_GRAPH._adj))
    assert peel.contract(_mask(s)) == _ref_contract(ref, set(s))
    _check_peel(peel, ref)


@given(gapped_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_copying_wrappers_match_naive_reference(g, data):
    clone = Graph(g.vertices, g.edges())
    assert min_degree_vertex(g) == _ref_min_degree(_reference(g))

    v = data.draw(st.sampled_from(g.vertices))
    ref = _reference(g)
    _ref_delete(ref, v)
    assert without_vertex(g, v)._adj == _as_masks(ref)

    s = data.draw(_contracted_sets(_reference(g)))
    ref = _reference(g)
    h, z = contract_set(g, s)
    assert z == _ref_contract(ref, set(s))
    assert h._adj == _as_masks(ref) and h.vertices == tuple(sorted(ref))
    assert g == clone


@given(gapped_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_edges_ascend_for_shuffled_ids_and_after_contraction(g, data):
    # Graph.edges and write_edge_list rely on this without sorting
    ids = data.draw(st.permutations(g.vertices))
    edges = data.draw(st.permutations([(v, u) for u, v in g.edges()]))
    h = Graph(ids, edges)
    assert h == g and h.edges() == sorted(h.edges())
    c, _ = contract_set(h, data.draw(_contracted_sets(_reference(h))))
    assert c.edges() == sorted(c.edges())


@given(graphs(max_n=12))
def test_both_construction_paths_agree(g):
    # Graph() validates its input; parse_graph builds through _from_adj
    parsed = parse_graph(write_edge_list(g))
    assert parsed == g
    assert hash(parsed) == hash(g)
    assert parsed.vertex_mask == g.vertex_mask == (1 << g.n) - 1
    assert (parsed.n, parsed.m) == (g.n, g.m)
    for h in (g, parsed):
        for bad in (-1, g.n, 1.5, "0"):
            assert not h.has_vertex(bad)
    missing = next(
        ((u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)),
        None,
    )
    if missing is not None:
        assert Graph(range(g.n), g.edges() + [missing]) != parsed
