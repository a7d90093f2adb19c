import hashlib
import random
from dataclasses import replace

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from minorcolor import (
    Graph,
    IndependenceShortfall,
    MinDegreeExceeded,
    MinorAuditFailed,
    MinorColorError,
    ResourceLimitExceeded,
    color_by_contraction,
    elimination_order,
    greedy_degeneracy_color,
    is_proper_coloring,
    palette_bound,
    replay_trace,
    table_row,
)
from minorcolor.generators import GenSpec, complete_multipartite, generate
from minorcolor.oracles import brute_force_chromatic_number

from conftest import graphs


def test_palette_bound_values():
    assert palette_bound(5, 2) == 5
    assert palette_bound(21, 3) == 20
    assert palette_bound(1, 2) == 1  # boundary; coloring callers require >= 2


def test_palette_bound_validation():
    with pytest.raises(ValueError):
        palette_bound(0, 2)


def test_color_by_contraction_rejects_bad_parameters():
    with pytest.raises(ValueError, match="^t must be >= 2$"):
        color_by_contraction(Graph.complete(2), 1, 1, 1)
    with pytest.raises(ValueError, match="^delta and alpha must be >= 1$"):
        color_by_contraction(Graph.complete(2), 2, 0, 1)


def test_color_by_contraction_rejects_too_small_palette():
    with pytest.raises(ValueError):
        color_by_contraction(Graph.complete(2), 2, 1, 2)  # palette would be 1


def test_forests_two_colorable():
    for seed in range(5):
        g = generate(GenSpec("forest", n=18, seed=seed))
        report = color_by_contraction(g, 2, 1, 1)
        assert report.proper
        assert report.palette_bound == 2
        assert report.colors_used <= 2
        assert is_proper_coloring(g, report.coloring)


def test_series_parallel_three_colorable():
    for seed in range(5):
        g = generate(GenSpec("series_parallel", n=14, seed=seed))
        report = color_by_contraction(g, 3, 2, 1)
        assert report.proper and report.colors_used <= 3


def test_triangulations_five_colorable():
    for seed in range(5):
        g = generate(GenSpec("planar_triangulation", n=16, seed=seed))
        report = color_by_contraction(g, 4, 5, 2)
        assert report.proper and report.colors_used <= 5


def test_extremal_block_colors():
    block = complete_multipartite((2, 2, 2, 2, 2))
    report = color_by_contraction(block, 7, 11, 2)
    assert report.proper
    assert report.palette_bound == 11
    assert brute_force_chromatic_number(block) == 5
    assert report.colors_used == 5  # the run is deterministic and optimal here


def test_min_degree_exceeded_is_a_finding():
    with pytest.raises(MinDegreeExceeded) as err:
        color_by_contraction(Graph.complete(10), 6, 7, 2)
    assert err.value.degree == 9
    assert err.value.graph.n == 10


def test_independence_shortfall_is_a_finding():
    with pytest.raises(IndependenceShortfall) as err:
        color_by_contraction(Graph.complete(4), 3, 3, 3)
    assert err.value.found == 1
    assert err.value.required == 3
    assert err.value.subgraph.n == 3


def test_audit_mode_passes_on_certified_inputs():
    g = generate(GenSpec("planar_triangulation", n=10, seed=3))
    report = color_by_contraction(g, 4, 5, 2, audit=True)
    assert report.proper


def test_audit_mode_catches_premise_violation():
    with pytest.raises(MinorAuditFailed):
        color_by_contraction(Graph.complete(7), 6, 9, 2, audit=True)


def test_audit_runs_under_the_given_cap():
    # the first neighborhood has 3 vertices, one above cap 2
    g = generate(GenSpec("planar_triangulation", n=12, seed=1))
    with pytest.raises(ResourceLimitExceeded) as err:
        color_by_contraction(g, 4, 5, 2, audit=True, cap=2)
    assert str(err.value) == "clique-minor search: instance size 3 exceeds cap 2"


def test_isolated_vertices_reuse_existing_color():
    g = Graph(range(4), [(0, 1)])
    report = color_by_contraction(g, 2, 1, 1)
    assert report.proper
    # both isolated vertices take the color of the smallest colored vertex
    assert report.coloring.assignment[2] == report.coloring.assignment[0]
    assert report.coloring.assignment[3] == report.coloring.assignment[0]


def test_single_vertex_and_empty():
    report = color_by_contraction(Graph.empty(1), 2, 1, 1)
    assert report.coloring.assignment == {0: 0}
    assert report.trace.base_size == 1
    report = color_by_contraction(Graph(()), 2, 1, 1)
    assert report.coloring.assignment == {}
    assert report.colors_used == 0


def test_lift_golden():
    """Pins the traces and colorings of sparse graphs with isolated
    vertices and id gaps, each at t = 2, 3 and 4, so the lift must give
    every isolated vertex the color of the lowest id colored before it.
    A premise violation is pinned by its type."""
    rng = random.Random(15)
    lines = []
    for _ in range(300):
        n = rng.randint(2, 40)
        ids = sorted(rng.sample(range(64), n))
        p = rng.uniform(0.0, 3.0 / n)
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :] if rng.random() < p]
        g = Graph(ids, edges)
        for t in (2, 3, 4):
            row = table_row(t)
            try:
                report = color_by_contraction(g, t, row.delta, row.alpha)
            except MinorColorError as exc:
                lines.append(type(exc).__name__)
                continue
            steps = [
                (s.vertex, s.degree, sorted(s.independent_set), s.merged_vertex, s.color)
                for s in report.trace.steps
            ]
            lines.append(f"{sorted(report.coloring.assignment.items())} {steps}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fb5ef9d218830ddba3061094a5f39c2f5321cbe7c91383cc17947f6ed7e7f8d5"


def test_trace_records_and_replays():
    g = generate(GenSpec("planar_triangulation", n=14, seed=6))
    report = color_by_contraction(g, 4, 5, 2)
    for step in report.trace.steps:
        if step.degree >= 1:
            assert len(step.independent_set) >= 1
            assert step.merged_vertex is not None
    replayed = replay_trace(g, report.trace, 5, 2)
    assert replayed.assignment == report.coloring.assignment
    assert replayed.palette_size == report.coloring.palette_size


def test_replay_rejects_wrong_graph():
    g = generate(GenSpec("planar_triangulation", n=12, seed=1))
    other = generate(GenSpec("planar_triangulation", n=12, seed=2))
    report = color_by_contraction(g, 4, 5, 2)
    with pytest.raises(ValueError):
        replay_trace(other, report.trace, 5, 2)


def test_replay_with_a_smaller_palette_exhausts_it():
    # K4 needs 4 colors: replayed with a palette of 3, the last lift step
    # finds all 3 on the neighborhood of 0
    g = Graph.complete(4)
    trace = color_by_contraction(g, 3, 3, 1).trace
    with pytest.raises(ValueError) as err:
        replay_trace(g, trace, 2, 1)
    assert str(err.value) == "replay: all 3 colors appear on the neighborhood of 0"


def _tamper_color(trace, g):
    step = trace.steps[0]
    trace.steps[0] = replace(step, color=step.color + 1)


def _tamper_merged_vertex(trace, g):
    step = trace.steps[0]
    trace.steps[0] = replace(step, merged_vertex=step.merged_vertex + 1)


def _tamper_base_size(trace, g):
    trace.base_size += 1


def _tamper_dependent_set(trace, g):
    step = trace.steps[0]
    nbrs = g.neighbors(step.vertex)
    edge = next((u, w) for u in nbrs for w in nbrs if g.has_edge(u, w))
    trace.steps[0] = replace(step, independent_set=frozenset(edge))


ISOLATED_AND_PATH = Graph(range(4), [(1, 2), (2, 3)])


def _tamper_isolated_merge(trace, g):
    # a degree-0 step given a set: the descent merges whenever the set is
    # non-empty, so replay must refuse to merge an isolated vertex
    step = trace.steps[0]
    assert step.degree == 0
    trace.steps[0] = replace(step, independent_set=frozenset({1}))


def _tamper_empty_merge(trace, g):
    # every field but the empty set is what the lift computes for it, so
    # only the empty-set check refuses this trace
    step = trace.steps[0]
    empty = replace(step, independent_set=frozenset(), merged_vertex=step.vertex)
    trace.steps.insert(0, empty)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_tamper_color, "different trace"),
        (_tamper_merged_vertex, "different trace"),
        (_tamper_base_size, "different trace"),
        (_tamper_dependent_set, "not independent"),
        (_tamper_empty_merge, "^trace step at vertex 5 merges nothing"),
        (_tamper_isolated_merge, r"not independent in N\("),
    ],
)
def test_replay_rejects_tampered_trace(tamper, message):
    if tamper is _tamper_isolated_merge:
        g = ISOLATED_AND_PATH
    else:
        g = generate(GenSpec("planar_triangulation", n=12, seed=1))
    trace = color_by_contraction(g, 4, 5, 2).trace
    tamper(trace, g)
    with pytest.raises(ValueError, match=message):
        replay_trace(g, trace, 5, 2)


@pytest.mark.parametrize("bad", [-1, "a", 1.5, True])
def test_replay_rejects_a_set_member_that_is_no_vertex_id(bad):
    g = generate(GenSpec("planar_triangulation", n=12, seed=1))
    trace = color_by_contraction(g, 4, 5, 2).trace
    step = trace.steps[0]
    trace.steps[0] = replace(step, independent_set=step.independent_set | {bad})
    with pytest.raises(ValueError, match="which is not a vertex id"):
        replay_trace(g, trace, 5, 2)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_greedy_within_degeneracy_plus_one(g):
    coloring = greedy_degeneracy_color(g)
    _, degeneracy = elimination_order(g)
    if g.n:
        assert is_proper_coloring(g, coloring)
        assert coloring.colors_used() <= degeneracy + 1


@given(graphs(max_n=12))
@settings(max_examples=100, deadline=None)
def test_greedy_is_first_fit_along_the_elimination_order(g):
    """Each vertex with neighbors removed after it takes the least color
    absent from them; one with none, other than the last removed, takes
    the color of the lowest id removed after it."""
    color = greedy_degeneracy_color(g).assignment
    order, _ = elimination_order(g)
    for i, v in enumerate(order[:-1]):
        later = order[i + 1 :]
        taken = {color[u] for u in g.neighbors(v) if u in later}
        if taken:
            assert color[v] == min(set(range(len(taken) + 1)) - taken)
        else:
            assert color[v] == color[min(later)]


def test_greedy_examples():
    tree = generate(GenSpec("forest", n=15, seed=2))
    assert greedy_degeneracy_color(tree).colors_used() <= 2
    tri = generate(GenSpec("planar_triangulation", n=15, seed=2))
    assert greedy_degeneracy_color(tri).colors_used() <= 6
    assert greedy_degeneracy_color(Graph.complete(6)).colors_used() == 6


def test_contraction_bound_never_worse_than_greedy_bound_on_rows():
    for t in range(2, 11):
        row = table_row(t)
        assert row.chi_bound <= row.delta + 1


def test_coloring_is_deterministic():
    g = generate(GenSpec("planar_triangulation", n=15, seed=9))
    a = color_by_contraction(g, 4, 5, 2)
    b = color_by_contraction(g, 4, 5, 2)
    assert a.coloring.assignment == b.coloring.assignment
    assert a.trace == b.trace


# An independent reference for the pick order: a full scan over a
# {vertex: set of neighbors} graph rebuilt from the recorded steps, sharing
# no code with the descent.


def _naive_pick(nbrs):
    """Minimum degree first, then the smallest id."""
    d, v = min((len(us), v) for v, us in nbrs.items())
    return v, d


@st.composite
def sparse_id_graphs(draw):
    """Graphs on up to 14 ids drawn from 0..40, at one of three densities,
    so ids have holes, sparse draws leave isolated vertices, and hubs
    appear."""
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=14)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    keep_from = draw(st.integers(1, 3))
    flags = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Graph(ids, [p for p, f in zip(pairs, flags) if f >= keep_from])


# 36 is isolated and goes first; then 5 (degree 1) merges with the hub 17
# into id 5, which comes out with degree 4.
HUB_AND_ISOLATED = Graph(
    [2, 5, 9, 11, 17, 23, 30, 36],
    [(2, 23), (5, 17), (9, 17), (11, 17), (17, 23), (17, 30), (23, 30)],
)


@given(sparse_id_graphs())
@example(HUB_AND_ISOLATED)
@example(Graph([4, 8, 15, 16, 23, 42]))
@example(Graph.complete(6))
@settings(max_examples=200, deadline=None)
def test_pick_order_matches_naive_scan(g):
    report = color_by_contraction(g, 2, max(g.n, 1), 1)
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    for step in report.trace.steps:
        assert (step.vertex, step.degree) == _naive_pick(nbrs)
        if step.degree == 0:
            del nbrs[step.vertex]
            continue
        merged = {step.vertex} | step.independent_set
        z = min(merged)
        assert step.merged_vertex == z
        outside = set().union(*(nbrs.pop(u) for u in merged)) - merged
        for u in outside:
            nbrs[u] = (nbrs[u] - merged) | {z}
        nbrs[z] = outside
    assert len(nbrs) == report.trace.base_size

    order, degeneracy = elimination_order(g)
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    expected, widest = [], 0
    while nbrs:
        v, d = _naive_pick(nbrs)
        expected.append(v)
        widest = max(widest, d)
        for u in nbrs.pop(v):
            nbrs[u].discard(v)
    assert (order, degeneracy) == (expected, widest)
