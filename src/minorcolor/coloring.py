"""Contraction-based coloring under degree and independence assumptions.

color_by_contraction colors a graph assumed to be minor-free using at most
delta - alpha + 2 colors, where delta bounds the minimum degree of every
graph in the class and alpha is the guaranteed independent-set size of
delta-vertex neighborhood graphs.  The recursion:

1. n = 1: color 0.
2. Take a minimum-degree vertex v (degree d; d > delta is a premise
   violation and raises MinDegreeExceeded).
3. d = 0: solve without v, then give v the color of the smallest-id
   colored vertex (color 0 if none).
4. Otherwise find a maximum independent set T inside the neighborhood
   graph of v (|T| < alpha - delta + d raises IndependenceShortfall),
   merge {v} union T into one vertex z, and solve the merged graph.
5. Lift: T gets z's color, other survivors keep theirs, and v takes the
   least palette color absent from its neighborhood, which exists
   because at most delta - alpha + 1 colors can appear there.

The recursion runs as one loop that peels a mutable working graph in
place, then one loop that lifts the coloring back, so instance-size-deep
recursions never touch the interpreter limit.  Every run produces a
step-by-step trace; replay_trace drives the same two loops to check it.

The working graph is graph._Peel, the package's one mutable graph (the
minor search's reductions delete and contract through it too).  It files
its vertices in one bucket per degree, so no step scans the whole graph.
The pick probes the buckets up to the minimum degree d.  A deletion moves
the d neighbors of v down one bucket.  A contraction into z rewrites the
masks of the outside neighbors of the merged vertices other than z, and
re-buckets z and those of them whose degree changes.  Each of these is a
constant number of operations on n-bit masks.  The rest of a step is the
exact MIS on a neighborhood graph of d <= delta vertices and, in the
lift, v's color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    IndependenceShortfall,
    MinDegreeExceeded,
    MinorAuditFailed,
    PaletteExhausted,
)
from .graph import (
    Coloring,
    Graph,
    _bits,
    _Peel,
    is_proper_coloring,
)
from .indep import max_independent_set
from .minor import has_clique_minor


@dataclass(frozen=True)
class TraceStep:
    vertex: int
    degree: int
    independent_set: frozenset[int]
    merged_vertex: int | None  # None when the step removed an isolated vertex
    color: int


@dataclass
class ContractionTrace:
    steps: list[TraceStep] = field(default_factory=list)
    base_size: int = 0


@dataclass
class ColorReport:
    coloring: Coloring
    colors_used: int
    palette_bound: int
    delta_used: int
    alpha_used: int
    proper: bool
    trace: ContractionTrace


def palette_bound(delta: int, alpha: int) -> int:
    """delta - alpha + 2, the palette size the recursion is entitled to."""
    if delta < alpha - 1:
        raise ValueError(f"delta={delta} must be at least alpha-1={alpha - 1}")
    return delta - alpha + 2


def color_by_contraction(
    g: Graph,
    t: int,
    delta: int,
    alpha: int,
    *,
    audit: bool = False,
    oracle_cap: int | None = None,
) -> ColorReport:
    """Color g with at most delta - alpha + 2 colors.

    The caller asserts g has no complete minor of order t+1; with
    audit=True every neighborhood graph is checked for an order-t minor
    and a violation raises MinorAuditFailed.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if delta < 1 or alpha < 1:
        raise ValueError("delta and alpha must be >= 1")
    palette = palette_bound(delta, alpha)
    if palette < 2:
        raise ValueError("palette bound delta - alpha + 2 must be >= 2")

    def choose(v: int, d: int, adj: dict[int, int]) -> frozenset[int]:
        if d > delta:
            raise MinDegreeExceeded(v, d, Graph._from_adj(adj))
        if d == 0:
            return frozenset()
        nbrs = adj[v]
        neighborhood = Graph._from_adj({u: adj[u] & nbrs for u in _bits(nbrs)})
        if audit:
            model = has_clique_minor(neighborhood, t, cap=oracle_cap)
            if model is not None:
                raise MinorAuditFailed(model, neighborhood)
        chosen = max_independent_set(neighborhood)
        required = alpha - (delta - d)
        if len(chosen) < required:
            raise IndependenceShortfall(neighborhood, len(chosen), required)
        return chosen

    coloring, trace = _descend_and_lift(dict(g._adj), choose, palette)
    proper = is_proper_coloring(g, coloring) if g.n else True
    return ColorReport(
        coloring=coloring,
        colors_used=coloring.colors_used(),
        palette_bound=palette,
        delta_used=delta,
        alpha_used=alpha,
        proper=proper,
        trace=trace,
    )


def replay_trace(g: Graph, trace: ContractionTrace, delta: int, alpha: int) -> Coloring:
    """Re-run a recorded trace against its original graph, verifying each
    step, and rebuild the coloring from scratch.  Raises ValueError on any
    mismatch between the trace and what the graph dictates."""
    palette = palette_bound(delta, alpha)
    recorded = iter(trace.steps)

    def choose(v: int, d: int, adj: dict[int, int]) -> frozenset[int]:
        step = next(recorded, None)
        if step is None or (step.vertex, step.degree) != (v, d):
            raise ValueError(f"graph has vertex {v} of degree {d} next, trace has {step}")
        s = step.independent_set
        if not all((adj[v] >> u) & 1 for u in s) or any(
            (adj[u] >> w) & 1 for u in s for w in s
        ):
            raise ValueError(f"trace set {sorted(s)} is not independent in N({v})")
        return s

    try:
        coloring, rebuilt = _descend_and_lift(dict(g._adj), choose, palette)
    except PaletteExhausted as exc:
        raise ValueError(f"replay: {exc}") from None
    if rebuilt != trace:
        raise ValueError("replay rebuilds a different trace than the recorded one")
    return coloring


def _descend_and_lift(
    adj: dict[int, int],
    choose: Callable[[int, int, dict[int, int]], frozenset[int]],
    palette: int,
) -> tuple[Coloring, ContractionTrace]:
    """The descent peels adj in place down to at most one vertex: each step
    takes the minimum-degree vertex v of degree d, deletes it when d = 0 and
    otherwise merges it with choose(v, d, adj).  The lift colors what is
    left with 0 and undoes the steps in reverse order."""
    peel = _Peel(adj)
    pending = []
    while len(adj) > 1:
        v, d = peel.min_degree()
        chosen = choose(v, d, adj)
        nbrs = adj[v]
        if d == 0:
            peel.delete(v)
            z = None
        else:
            z = peel.contract(sum(1 << u for u in chosen) | 1 << v)
        pending.append((v, d, chosen, z, nbrs))

    assignment: dict[int, int] = {v: 0 for v in adj}
    steps: list[TraceStep] = []
    for v, d, chosen, z, nbrs in reversed(pending):
        if d == 0:
            color = assignment[min(assignment)] if assignment else 0
        else:
            merged_color = assignment[z]
            for u in chosen:
                assignment[u] = merged_color
            used = {assignment[u] for u in _bits(nbrs)}
            color = next((c for c in range(palette) if c not in used), None)
            if color is None:
                raise PaletteExhausted(
                    f"all {palette} colors appear on the neighborhood of {v}"
                )
        assignment[v] = color
        steps.append(TraceStep(v, d, chosen, z, color))
    steps.reverse()
    return Coloring(assignment, palette), ContractionTrace(steps, base_size=len(adj))


def elimination_order(g: Graph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal; returns (order, degeneracy)."""
    order: list[int] = []
    degeneracy = 0
    peel = _Peel(dict(g._adj))
    while peel.adj:
        v, d = peel.min_degree()
        degeneracy = max(degeneracy, d)
        order.append(v)
        peel.delete(v)
    return order, degeneracy


def greedy_degeneracy_color(g: Graph) -> Coloring:
    """Color along the reverse minimum-degree elimination order with the
    least available color; uses at most degeneracy + 1 colors."""
    order, _ = elimination_order(g)
    assignment: dict[int, int] = {}
    for v in reversed(order):
        used = {assignment[u] for u in g.neighbors(v) if u in assignment}
        c = 0
        while c in used:
            c += 1
        assignment[v] = c
    palette = max(assignment.values()) + 1 if assignment else 0
    return Coloring(assignment, palette)
