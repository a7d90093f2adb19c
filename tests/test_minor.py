import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from minorcolor import (
    Graph,
    MinorModel,
    ResourceLimitExceeded,
    contract_set,
    edge_count_forces_minor,
    has_clique_minor,
    induced_subgraph,
    validate_model,
)
from minorcolor.generators import GenSpec, complete_multipartite, generate
from minorcolor.graph import _bits
from minorcolor.oracles import brute_force_has_minor

from conftest import graphs, grid, is_plane_rotation, petersen


def test_clique_detects_itself():
    model = has_clique_minor(Graph.complete(5), 5)
    assert model is not None
    assert sorted(sorted(s) for s in model.branch_sets) == [[0], [1], [2], [3], [4]]
    assert validate_model(Graph.complete(5), model)


def test_petersen_has_k5_minor():
    p = petersen()
    model = has_clique_minor(p, 5)
    assert model is not None
    assert validate_model(p, model)
    assert brute_force_has_minor(p, 5)


def test_petersen_has_no_k6_minor():
    assert has_clique_minor(petersen(), 6) is None


def test_octahedron_has_no_k5_minor():
    # planar, so K5 is out; brute force agrees
    octa = complete_multipartite((2, 2, 2))
    assert has_clique_minor(octa, 5) is None
    assert not brute_force_has_minor(octa, 5)


def test_extremal_block_is_k8_minor_free():
    block = complete_multipartite((2, 2, 2, 2, 2))
    assert has_clique_minor(block, 8) is None
    assert has_clique_minor(block, 7) is not None


def test_order_one_minor():
    assert has_clique_minor(Graph.empty(3), 1) is not None
    assert has_clique_minor(Graph(()), 1) is None


def test_invalid_order():
    with pytest.raises(ValueError):
        has_clique_minor(Graph.complete(2), 0)


def test_search_cap():
    g = Graph(range(50))
    with pytest.raises(ResourceLimitExceeded) as err:
        has_clique_minor(g, 2)
    assert err.value.cap == 40
    assert has_clique_minor(g, 2, cap=64) is None  # retry with larger cap


def test_validate_model_rejects_overlap():
    k5 = Graph.complete(5)
    good = MinorModel(tuple(frozenset({v}) for v in range(5)))
    assert validate_model(k5, good)
    overlapping = MinorModel((frozenset({0, 1}), frozenset({1, 2})))
    assert not validate_model(k5, overlapping)


def test_validate_model_path_as_k2():
    p4 = Graph.path(4)
    assert validate_model(p4, MinorModel((frozenset({0, 1}), frozenset({2, 3}))))


def test_validate_model_requires_connected_sets():
    p4 = Graph.path(4)
    assert not validate_model(p4, MinorModel((frozenset({0, 3}), frozenset({1, 2}))))


def test_validate_model_requires_pairwise_edges():
    g = Graph(range(4), [(0, 1), (2, 3)])
    assert not validate_model(g, MinorModel((frozenset({0, 1}), frozenset({2, 3}))))


def test_validate_model_rejects_empty_branch_set():
    k3 = Graph.complete(3)
    assert validate_model(k3, MinorModel((frozenset({0}), frozenset({1}))))
    assert not validate_model(k3, MinorModel((frozenset({0}), frozenset())))


def test_edge_count_shortcut_rows():
    # 41 edges on 10 vertices exceeds 6n-20
    g = Graph.complete(10)
    edges = g.edges()[:41]
    g41 = Graph(range(10), edges)
    assert edge_count_forces_minor(g41, 8)

    tri = generate(GenSpec("planar_triangulation", n=10, seed=0))
    assert tri.m == 24
    assert not edge_count_forces_minor(tri, 5)  # equality row is inconclusive

    block = complete_multipartite((2, 2, 2, 2, 2))
    assert edge_count_forces_minor(block, 7)  # 40 > 5*10-15
    assert not edge_count_forces_minor(block, 8)  # 40 = 6*10-20 exactly


def test_edge_count_out_of_range():
    with pytest.raises(ValueError):
        edge_count_forces_minor(Graph.complete(3), 4)
    with pytest.raises(ValueError):
        edge_count_forces_minor(Graph.complete(3), 12)


def test_edge_count_below_vertex_minimum_is_inconclusive():
    assert not edge_count_forces_minor(Graph.complete(3), 5)
    assert not edge_count_forces_minor(Graph.complete(4), 9)


@given(graphs(max_n=7), st.integers(2, 6))
@settings(max_examples=150, deadline=None)
def test_agrees_with_brute_force(g, t):
    model = has_clique_minor(g, t)
    assert (model is not None) == brute_force_has_minor(g, t)
    if model is not None:
        assert validate_model(g, model)


@given(graphs(min_n=8, max_n=8), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_agrees_with_brute_force_at_eight_vertices(g, t):
    assert (has_clique_minor(g, t) is not None) == brute_force_has_minor(g, t)


@given(graphs(max_n=7), st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_minor_monotone_under_subgraphs_and_contractions(g, t, rng):
    if has_clique_minor(g, t) is not None:
        return
    verts = list(g.vertices)
    if len(verts) > 1:
        drop = rng.choice(verts)
        sub = induced_subgraph(g, [v for v in verts if v != drop])
        assert has_clique_minor(sub, t) is None
    edges = g.edges()
    if edges:
        u, v = rng.choice(edges)
        merged, _ = contract_set(g, [u, v])
        assert has_clique_minor(merged, t) is None


def test_pendant_and_isolated_vertices_do_not_change_answer():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(range(n), edges)
        # attach a pendant and an isolated vertex
        decorated = Graph(range(n + 2), edges + [(rng.randrange(n), n)])
        for t in (3, 4, 5):
            assert (has_clique_minor(g, t) is not None) == (
                has_clique_minor(decorated, t) is not None
            ), (edges, t)


@given(graphs(max_n=7), st.integers(4, 6), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_simplicial_vertex_and_subdivision_do_not_change_answer(g, t, rng):
    # vertex n joins a random clique of size < t-1 (so it is simplicial and
    # the reduction deletes it); vertex n+1 subdivides a random edge (so it
    # has degree 2 with non-adjacent neighbors and the reduction merges it)
    n = g.n
    clique, pool = [], list(g.vertices)
    size = rng.randrange(t - 1)
    while pool and len(clique) < size:
        u = rng.choice(pool)
        clique.append(u)
        pool = [w for w in pool if w != u and g.has_edge(u, w)]
    edges = g.edges() + [(u, n) for u in clique]
    if edges:
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n + 1), (v, n + 1)]
    decorated = Graph(range(n + 2), edges)
    model = has_clique_minor(decorated, t)
    assert (model is not None) == brute_force_has_minor(g, t)
    if model is not None:
        assert validate_model(decorated, model)


def _subdivided_clique(k: int) -> Graph:
    """K_k with every edge replaced by a path of length two."""
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = []
    for i, (u, v) in enumerate(pairs):
        edges += [(u, k + i), (v, k + i)]
    return Graph(range(k + len(pairs)), edges)


@pytest.mark.parametrize("k", [5, 6])
def test_subdivided_clique_witness_lifts_through_merges(k):
    g = _subdivided_clique(k)
    model = has_clique_minor(g, k)
    assert model is not None
    assert validate_model(g, model)
    assert has_clique_minor(g, k + 1) is None


@pytest.mark.parametrize("n", [20, 60])
def test_stacked_triangulation_has_no_k5_minor(n):
    # planar, and built from 3-clique-sums of K4s, so simplicial deletion
    # alone takes it apart
    tri = generate(GenSpec("planar_triangulation", n=n, seed=0))
    assert has_clique_minor(tri, 5, cap=n) is None


def test_neighborhoods_of_minor_free_graphs_drop_one_order():
    # if g has no order-(t+1) minor, each neighborhood graph has no order-t
    block = complete_multipartite((2, 2, 2, 2, 2))
    assert has_clique_minor(block, 8) is None
    for v in block.vertices:
        h = induced_subgraph(block, block.neighbors(v))
        assert has_clique_minor(h, 7) is None
    octa = complete_multipartite((2, 2, 2))
    for v in octa.vertices:
        h = induced_subgraph(octa, octa.neighbors(v))
        assert has_clique_minor(h, 4) is None


def test_validate_model_rejects_bad_vertex_ids():
    k3 = Graph.complete(3)
    assert not validate_model(k3, MinorModel((frozenset({-1}),)))
    assert not validate_model(k3, MinorModel((frozenset({"0"}),)))


def test_witness_serialization():
    model = MinorModel((frozenset({2, 1}), frozenset({3})))
    assert model.to_lines() == ["set_0: 1 2", "set_1: 3"]


def _reduction_corpus():
    """Seeded graphs of at most 11 vertices on which both reductions fire:
    a random core, then subdivided edges (degree-2 vertices with
    non-adjacent neighbors) and pendant cliques of one or two vertices
    joined to a vertex or an edge (simplicial vertices).  Each vertex gets
    a random id from 0..40, so ids have gaps and added vertices are not
    always the highest."""
    rng = random.Random(8)
    for _ in range(250):
        n = rng.randint(7, 11)
        ids = rng.sample(range(41), n)
        core = rng.randint(4, n - 2)
        edges = [
            (ids[u], ids[v])
            for u in range(core)
            for v in range(u + 1, core)
            if rng.random() < 0.7
        ]
        w = core
        while w < n:
            if edges and (rng.random() < 0.5 or n - w < 2):
                u, v = edges.pop(rng.randrange(len(edges)))
                edges += [(u, ids[w]), (v, ids[w])]
                w += 1
                continue
            size = rng.randint(1, min(2, n - w))
            new = ids[w : w + size]
            anchor = list(rng.choice(edges)) if edges and rng.random() < 0.5 else [ids[0]]
            edges += [(a, b) for a in anchor for b in new]
            edges += [(new[0], new[1])] if size == 2 else []
            w += size
        yield Graph(ids, edges)


def test_reduction_witness_golden():
    """Pins the witnesses has_clique_minor returns, so a change to the
    reductions or the search must make the same merges in the same order."""
    from minorcolor.minor import _reduce

    deleted = merged = 0
    lines = []
    for g in _reduction_corpus():
        for t in range(4, 8):
            adj, merges = _reduce(g, t)
            deleted += g.n - len(merges) > len(adj)
            merged += bool(merges)
            model = has_clique_minor(g, t)
            if model is not None:
                assert validate_model(g, model)
                lines.append(repr(sorted(sorted(s) for s in model.branch_sets)))
            else:
                lines.append("None")
    assert deleted >= 800 and merged >= 800
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4a68a864d39f79a1d525fd46ed560f17b51f75b445374da2bdc669e1db7d1717"


def test_branch_set_search_golden():
    """Pins the raw search order: the masks _search_branch_sets returns,
    in closing order, when called directly on dense seeded graphs, with
    no reduction, clique pass or certificate in front of it."""
    from minorcolor.minor import _search_branch_sets

    rng = random.Random(12)
    multi = 0
    lines = []
    for _ in range(300):
        n = rng.randint(8, 12)
        p = rng.uniform(0.45, 0.8)
        t = rng.randint(5, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        masks = _search_branch_sets(dict(Graph(range(n), edges)._adj), t)
        multi += masks is not None and any(m & (m - 1) for m in masks)
        lines.append(repr(masks))
    assert multi >= 150
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f3fd6aad6e68a3ede003372b9becff107363af763f03d529b04b3c56e02b2076"


@given(graphs(max_n=7), st.integers(2, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_branch_set_search_alone_agrees_with_brute_force(g, t, data):
    """_search_branch_sets called directly, with no reduction or size check
    in front of it, on graphs that may have fewer than t vertices and ids
    with gaps."""
    from minorcolor.minor import _search_branch_sets

    ids = data.draw(
        st.lists(st.integers(0, 30), min_size=g.n, max_size=g.n, unique=True)
    )
    relabel = dict(zip(g.vertices, ids))
    h = Graph(ids, [(relabel[u], relabel[v]) for u, v in g.edges()])
    masks = _search_branch_sets(dict(h._adj), t)
    assert (masks is not None) == brute_force_has_minor(h, t)
    if masks is not None:
        model = MinorModel(tuple(frozenset(_bits(m)) for m in masks))
        assert model.order == t
        assert validate_model(h, model)


def _clique_count_holds(adj: dict[int, int], t: int, coloring: dict[int, int]) -> bool:
    """Naive check of a clique-count certificate: a proper coloring of
    every vertex, and fewer than 2t vertices plus colors."""
    nbrs = {v: {u for u in adj if mask >> u & 1} for v, mask in adj.items()}
    if set(coloring) != set(nbrs):
        return False
    if any(coloring[u] == coloring[v] for v in nbrs for u in nbrs[v]):
        return False
    return len(nbrs) + len(set(coloring.values())) < 2 * t


def _elimination_width(adj: dict[int, int], order: list[int]) -> int | None:
    """Naive re-elimination: the width of order (each vertex once), or
    None if order is not a permutation of the vertices."""
    nbrs = {v: {u for u in adj if mask >> u & 1} for v, mask in adj.items()}
    if sorted(order) != sorted(nbrs):
        return None
    width = -1
    for v in order:
        near = nbrs.pop(v)
        width = max(width, len(near))
        for u in near:
            nbrs[u] |= near - {u}
            nbrs[u].discard(v)
    return width


def _certificate_holds(adj: dict[int, int], t: int, cert) -> bool:
    kind, evidence = cert
    if kind == "clique_count":
        return _clique_count_holds(adj, t, evidence)
    if kind == "planar":
        # a planar graph has no K5 minor, so none of any order t >= 5
        return t >= 5 and is_plane_rotation(adj, evidence)
    width = _elimination_width(adj, evidence)
    return kind == "width" and width is not None and width < t - 1


@given(graphs(max_n=8), st.integers(3, 7))
@settings(max_examples=300, deadline=None)
def test_absence_certificates_are_sound(g, t):
    from minorcolor.minor import _absence_certificate, _reduce

    # the helper proves absence in whatever graph it is given, so it is
    # checked on the input as well as on the reduced graph
    for adj in (dict(g._adj), _reduce(g, t)[0]):
        cert = _absence_certificate(adj, t)
        if cert is not None:
            assert _certificate_holds(adj, t, cert), cert
            assert not brute_force_has_minor(g, t)


def _flipped_triangulation(rng: random.Random, n: int) -> Graph:
    """A stacked triangulation on n >= 4 vertices after random edge flips,
    less up to two edges.  Faces are kept as vertex sets: a flip swaps
    edge uv of faces uvx and uvy for xy when x and y are not adjacent,
    which keeps a triangulation, and deleting edges keeps a graph planar."""
    faces = {frozenset(f) for f in combinations(range(4), 3)}
    for v in range(4, n):
        face = rng.choice(sorted(sorted(f) for f in faces))
        faces.remove(frozenset(face))
        faces |= {frozenset((a, b, v)) for a, b in combinations(face, 2)}
    for _ in range(2 * n):
        edges = sorted({e for f in faces for e in combinations(sorted(f), 2)})
        u, v = rng.choice(edges)
        left, right = [f for f in faces if u in f and v in f]
        (x,), (y,) = left - {u, v}, right - {u, v}
        if (min(x, y), max(x, y)) not in edges:
            faces -= {left, right}
            faces |= {frozenset((x, y, u)), frozenset((x, y, v))}
    edges = sorted({e for f in faces for e in combinations(sorted(f), 2)})
    for _ in range(rng.randint(0, 2)):
        edges.pop(rng.randrange(len(edges)))
    return Graph(range(n), edges)


def test_planar_certificates_agree_with_brute_force():
    # on graphs(max_n=8) clique count or width decides every planar graph
    # first; flipped 9-vertex triangulations reach the planar kind
    from minorcolor.minor import _absence_certificate, _reduce

    rng = random.Random(0)
    members = 0
    for _ in range(200):
        g = _flipped_triangulation(rng, 9)
        adj = _reduce(g, 5)[0]
        cert = _absence_certificate(adj, 5)
        if cert is None or cert[0] != "planar":
            continue
        members += 1
        assert is_plane_rotation(adj, cert[1])
        assert not brute_force_has_minor(g, 5)
    assert members >= 10


@pytest.mark.parametrize(
    "g, t",
    [(Graph.complete(t), t) for t in range(1, 8)]
    + [(petersen(), 5), (Graph.cycle(6), 3)],
    ids=[f"K{t}@{t}" for t in range(1, 8)] + ["Petersen@5", "C6@3"],
)
def test_certificates_stay_silent_when_the_minor_exists(g, t):
    # K_t colors with t colors (n + k = 2t) and eliminates with width t-1,
    # the first values at which the certificates must not fire; Petersen
    # has treewidth 4 and a K5 minor
    from minorcolor.minor import _absence_certificate

    assert _absence_certificate(dict(g._adj), t) is None


@pytest.mark.parametrize(
    "g, t, kind",
    [
        (complete_multipartite((2, 2, 2, 3, 3)), 9, "clique_count"),
        (complete_multipartite((1, 2, 2, 2, 2, 2)), 9, "clique_count"),
        (petersen(), 6, "width"),
        (grid(4, 4), 5, "planar"),
        (grid(5, 5), 6, "planar"),
    ],
    ids=["K_{2,2,2,3,3}@9", "K_{1,2,2,2,2,2}@9", "Petersen@6", "grid4x4@5", "grid5x5@6"],
)
def test_certificate_skips_the_branch_set_search(monkeypatch, g, t, kind):
    import minorcolor.minor as minor

    def no_search(adj, t):
        raise AssertionError("branch-set search reached")

    monkeypatch.setattr(minor, "_search_branch_sets", no_search)
    assert has_clique_minor(g, t) is None
    adj, _ = minor._reduce(g, t)
    cert = minor._absence_certificate(adj, t)
    assert cert is not None and cert[0] == kind
    assert _certificate_holds(adj, t, cert)
