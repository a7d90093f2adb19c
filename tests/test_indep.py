import decimal
import math

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
from minorcolor.indep import applicable_variants
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
    g = Graph(range(70), max_vertices=128)
    with pytest.raises(ResourceLimitExceeded):
        max_independent_set(g)
    assert len(max_independent_set(g, cap=128)) == 70


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
