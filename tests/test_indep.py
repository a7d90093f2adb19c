import decimal
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from minorcolor import (
    Graph,
    ResourceLimitExceeded,
    gamma_constant,
    independence_number,
    is_independent_set,
    independence_guarantee,
    max_independent_set,
)
from minorcolor.generators import GenSpec, complete_multipartite, generate
from minorcolor.graph import induced_subgraph
from minorcolor.indep import _max_independent_mask, applicable_variants
from minorcolor.oracles import brute_force_max_independent_set

from conftest import graphs, petersen


def test_cycle_five():
    got = max_independent_set(Graph.cycle(5))
    assert got == frozenset({0, 2})


def test_complete_multipartite_alpha_is_largest_part():
    block = complete_multipartite((2, 2, 2, 2, 2))
    assert len(max_independent_set(block)) == 2
    assert len(max_independent_set(complete_multipartite((2, 2, 2, 3, 3)))) == 3


def test_petersen_alpha_four():
    got = max_independent_set(petersen())
    assert len(got) == 4
    # frozen from the subset-enumeration oracle
    assert got == frozenset({0, 2, 8, 9})
    assert brute_force_max_independent_set(petersen()) == got


def test_cap_enforced():
    g = Graph(range(70))
    with pytest.raises(ResourceLimitExceeded):
        max_independent_set(g)
    with pytest.raises(ResourceLimitExceeded):
        independence_number(g)
    with pytest.raises(ResourceLimitExceeded):
        independence_number(g, cap=69)
    assert len(max_independent_set(g, cap=128)) == 70
    assert independence_number(g, cap=70) == 70


def test_max_independent_set_golden():
    """Pins the exact set and alpha on seeded graphs well past the reach
    of the brute-force property, ids with gaps, sparse to dense."""
    rng = random.Random(14)
    lines = []
    for _ in range(300):
        n = rng.randint(9, 24)
        p = rng.uniform(0.1, 0.9)
        ids = sorted(rng.sample(range(2 * n), n))
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :] if rng.random() < p]
        g = Graph(ids, edges)
        lines.append(f"{sorted(max_independent_set(g))} {independence_number(g)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "17d75c42bfdde49dd410592b6a0967f7690ddb196cc4222410523f585fe862f3"


@given(graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_mask_search_matches_the_search_on_the_induced_subgraph(g, data):
    # the descent runs the search on its working dict under a neighbor mask
    members = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    mask = sum(1 << v for v in members)
    expect = max_independent_set(induced_subgraph(g, members))
    assert _max_independent_mask(g._adj, mask) == sum(1 << v for v in expect)


# One row per way out of the search: (graph, vertex mask, expected set).
MASK_SEARCH = [
    # a clique: the greedy set is its lowest vertex, certified by the cover
    (Graph.complete(5), 0b11110, {1}),
    # a path: the greedy set {0, 2, 4} meets the cover bound of 3
    (Graph.path(5), 0b11111, {0, 2, 4}),
    # a star with center 0: the greedy set {0} falls short of the leaves
    (Graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)]), 0b11111, {1, 2, 3, 4}),
    # C5: the greedy set {0, 2} is maximum, but the cover bound is 3
    (Graph.cycle(5), 0b11111, {0, 2}),
]


@pytest.mark.parametrize(
    ("g", "mask", "expect"), MASK_SEARCH, ids=["clique", "path", "star", "c5"]
)
def test_mask_search_table(g, mask, expect):
    assert _max_independent_mask(g._adj, mask) == sum(1 << v for v in expect)


@given(graphs(max_n=10), st.data())
@settings(max_examples=200, deadline=None)
def test_mask_search_matches_brute_force_on_the_induced_subgraph(g, data):
    members = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    mask = sum(1 << v for v in members)
    expect = brute_force_max_independent_set(induced_subgraph(g, members))
    assert _max_independent_mask(g._adj, mask) == sum(1 << v for v in expect)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_matches_brute_force_including_tie_break(g):
    got = max_independent_set(g)
    assert got == brute_force_max_independent_set(g)
    assert is_independent_set(g, got)
    assert independence_number(g) == len(got)


def test_independence_guarantee_examples():
    assert independence_guarantee(21, 8, "b").alpha == 3
    assert independence_guarantee(25, 9, "b").alpha == 3
    assert independence_guarantee(10, 4, "a").alpha == 2
    assert independence_guarantee(100, 10, "c").alpha == 6


def test_independence_guarantee_is_smallest_satisfying():
    for n in range(1, 40):
        for t in range(2, 9):
            a = independence_guarantee(n, t, "a").alpha
            assert (2 * a - 1) * t >= n
            assert a == 1 or (2 * (a - 1) - 1) * t < n
            if t >= 5:
                b = independence_guarantee(n, t, "b").alpha
                assert (2 * b - 1) * (2 * t - 5) >= 2 * n - 5
                assert b == 1 or (2 * (b - 1) - 1) * (2 * t - 5) < 2 * n - 5
            gamma = gamma_constant()
            c = independence_guarantee(n, t, "c").alpha
            assert (2 - gamma) * c * t >= n - 1e-9
            assert c == 1 or (2 - gamma) * (c - 1) * t < n + 1e-9


def test_variant_c_is_smallest_satisfying_at_fifty_digits():
    # an independent check of the exact integer solution of variant (c)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        two_minus_gamma = 2 - (80 - decimal.Decimal(5392).sqrt()) / 126
        for n in range(1, 501):
            for t in range(2, 13):
                c = independence_guarantee(n, t, "c").alpha
                assert two_minus_gamma * c * t >= n, (n, t)
                assert c == 1 or two_minus_gamma * (c - 1) * t < n, (n, t)


def test_independence_guarantee_validation():
    with pytest.raises(ValueError):
        independence_guarantee(10, 4, "b")
    with pytest.raises(ValueError):
        independence_guarantee(0, 4, "a")
    with pytest.raises(ValueError):
        independence_guarantee(10, 1, "a")
    with pytest.raises(ValueError):
        independence_guarantee(10, 4, "z")


def test_applicable_variants():
    assert applicable_variants(4) == ("a", "c")
    assert applicable_variants(5) == ("a", "b", "c")


def test_gamma_identity():
    gamma = gamma_constant()
    assert abs(126 * gamma + math.sqrt(5392) - 80) < 1e-12
    assert 0 < gamma < 1
    assert round(gamma, 4) == 0.0521
    assert round(gamma, 6) == 0.052141


@given(st.integers(1, 500), st.integers(2, 20), st.sampled_from(["a", "b", "c"]))
@settings(max_examples=200)
def test_alpha_monotone_in_n(n, t, variant):
    if variant == "b" and t < 5:
        t = t + 5
    a1 = independence_guarantee(n, t, variant).alpha
    a2 = independence_guarantee(n + 1, t, variant).alpha
    assert a2 >= a1
    assert 1 <= a1 <= n


@given(st.integers(1, 500), st.integers(2, 20), st.sampled_from(["a", "b", "c"]))
@settings(max_examples=200)
def test_alpha_monotone_in_t(n, t, variant):
    if variant == "b" and t < 5:
        t = t + 5
    a1 = independence_guarantee(n, t, variant).alpha
    a2 = independence_guarantee(n, t + 1, variant).alpha
    assert a2 <= a1


def _family_instances():
    yield generate(GenSpec("forest", n=12, seed=4)), 2
    yield generate(GenSpec("series_parallel", n=11, seed=9)), 3
    yield generate(GenSpec("planar_triangulation", n=12, seed=2)), 4
    yield generate(GenSpec("filtered_random", n=10, seed=6, forbid=6)), 5
    yield complete_multipartite((2, 2, 2, 2, 2)), 7


def test_guarantees_hold_empirically_on_minor_free_families():
    # exact alpha always clears every applicable closed-form guarantee
    from minorcolor import certify

    for g, t in _family_instances():
        assert certify(g, t + 1)
        alpha = len(max_independent_set(g))
        for variant in applicable_variants(t):
            assert alpha >= independence_guarantee(g.n, t, variant).alpha, (t, variant)


def test_neighborhood_padding_identity():
    # a min-degree vertex's neighborhood graph always holds an independent
    # set of size alpha - (delta - d)
    from minorcolor import induced_subgraph, min_degree_vertex, table_row

    cases = [
        (generate(GenSpec("forest", n=14, seed=1)), 2),
        (generate(GenSpec("series_parallel", n=13, seed=5)), 3),
        (generate(GenSpec("planar_triangulation", n=14, seed=8)), 4),
    ]
    for g, t in cases:
        row = table_row(t)
        v, d = min_degree_vertex(g)
        assert d <= row.delta
        if d >= 1:
            h = induced_subgraph(g, g.neighbors(v))
            assert len(max_independent_set(h)) >= row.alpha - (row.delta - d)
