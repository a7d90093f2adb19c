"""Contraction-based coloring under degree and independence assumptions.

color_by_contraction colors a graph assumed to be minor-free using at most
delta - alpha + 2 colors, where delta bounds the minimum degree of every
graph in the class and alpha is the guaranteed independent-set size of
delta-vertex neighborhood graphs.  The recursion:

1. n = 1: color 0.
2. Take a minimum-degree vertex v (degree d; d > delta is a premise
   violation and raises MinDegreeExceeded).
3. d = 0: solve without v, then give v the color of the smallest-id
   colored vertex.
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
The minimum-degree greedy, the paper's delta + 1 baseline, is the same
two loops with T empty at every step (greedy_degeneracy_color).

The working graph is graph._Peel, the package's one code that deletes and
contracts (the minor search's reductions go through it too).  It files
its vertices in one bucket per degree, so no step scans the whole graph.
The pick probes the buckets up to the minimum degree d.  A deletion moves
the d neighbors of v down one bucket.  A contraction into z rewrites the
masks of the outside neighbors of the merged vertices other than z, and
re-buckets z and those of them whose degree changes.  Each of these is a
constant number of operations on n-bit masks.  The rest of a step is the
exact MIS over the d <= delta neighbors of v, run on the working dict
under v's neighbor mask (no neighborhood graph is copied out; one is built
only for --audit and for a shortfall's witness) and, in the lift, v's
color: the lowest zero bit of the mask of colors on its neighbors.
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
    _is_id,
    _Peel,
    is_proper_coloring,
)
from .indep import _max_independent_mask
from .minor import DEFAULT_SEARCH_CAP, has_clique_minor


@dataclass(frozen=True)
class TraceStep:
    vertex: int
    degree: int
    independent_set: frozenset[int]
    merged_vertex: int | None  # None when the step deleted the vertex
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
    cap: int = DEFAULT_SEARCH_CAP,
) -> ColorReport:
    """Color g with at most delta - alpha + 2 colors.

    The caller asserts g has no complete minor of order t+1; with
    audit=True every neighborhood graph is checked for an order-t minor
    and a violation raises MinorAuditFailed.  cap is the vertex cap of
    that clique-minor search; the independent-set search keeps its own
    fixed cap of 64.  Either search above its cap raises
    ResourceLimitExceeded.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    if delta < 1 or alpha < 1:
        raise ValueError("delta and alpha must be >= 1")
    palette = palette_bound(delta, alpha)
    if palette < 2:
        raise ValueError("palette bound delta - alpha + 2 must be >= 2")

    def choose(v: int, d: int, adj: dict[int, int]) -> int:
        if d > delta:
            raise MinDegreeExceeded(v, d, Graph._from_adj(adj))
        if d == 0:
            return 0
        nbrs = adj[v]
        if audit:
            neighborhood = _neighborhood(adj, nbrs)
            model = has_clique_minor(neighborhood, t, cap=cap)
            if model is not None:
                raise MinorAuditFailed(model, neighborhood)
        chosen = _max_independent_mask(adj, nbrs)
        found, required = chosen.bit_count(), alpha - (delta - d)
        if found < required:
            raise IndependenceShortfall(_neighborhood(adj, nbrs), found, required)
        return chosen

    coloring, trace = _descend_and_lift(dict(g._adj), choose, palette)
    proper = is_proper_coloring(g, coloring)
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
    mismatch between the trace and what the graph dictates, on a step whose
    set holds anything but vertex ids, and on a step of degree d > 0 that
    merges nothing: color_by_contraction never makes one, since a non-empty
    neighborhood has a non-empty maximum independent set."""
    palette = palette_bound(delta, alpha)
    recorded = iter(trace.steps)

    def choose(v: int, d: int, adj: dict[int, int]) -> int:
        step = next(recorded, None)
        if step is None or (step.vertex, step.degree) != (v, d):
            raise ValueError(f"graph has vertex {v} of degree {d} next, trace has {step}")
        s = step.independent_set
        if d and not s:
            raise ValueError(f"trace step at vertex {v} merges nothing: its set is empty")
        bad = next((u for u in s if not _is_id(u)), None)
        if bad is not None:
            raise ValueError(f"trace set at vertex {v} holds {bad!r}, which is not a vertex id")
        smask = sum(1 << u for u in s)
        if smask & ~adj[v] or any(adj[u] & smask for u in s):
            raise ValueError(f"trace set {sorted(s)} is not independent in N({v})")
        return smask

    try:
        coloring, rebuilt = _descend_and_lift(dict(g._adj), choose, palette)
    except PaletteExhausted as exc:
        raise ValueError(f"replay: {exc}") from None
    if rebuilt != trace:
        raise ValueError("replay rebuilds a different trace than the recorded one")
    return coloring


def _neighborhood(adj: dict[int, int], nbrs: int) -> Graph:
    """The graph that the vertex mask nbrs induces in adj."""
    return Graph._from_adj({u: adj[u] & nbrs for u in _bits(nbrs)})


def _descend_and_lift(
    adj: dict[int, int],
    choose: Callable[[int, int, dict[int, int]], int],
    palette: int,
) -> tuple[Coloring, ContractionTrace]:
    """The descent peels adj in place down to at most one vertex: each step
    takes the minimum-degree vertex v of degree d and merges it with the
    vertex mask choose(v, d, adj), or deletes it when that mask is empty.
    The lift colors what is left with 0 and undoes the steps in reverse
    order: a merge gives its set z's color, then v takes the least color
    absent from the neighbors it had, or at d = 0 the lowest colored id's
    color.  A contraction only adds ids above its z, which is colored
    already, so the lowest colored id changes only when a deleted vertex
    comes back."""
    peel = _Peel(adj)
    pending = []
    while len(adj) > 1:
        v, d = peel.min_degree()
        chosen = choose(v, d, adj)
        nbrs = adj[v]
        if chosen:
            z = peel.contract(chosen | 1 << v)
        else:
            peel.delete(v)
            z = None
        pending.append((v, d, chosen, z, nbrs))

    assignment: dict[int, int] = {v: 0 for v in adj}
    lowest = next(iter(adj), None)
    steps: list[TraceStep] = []
    for v, d, chosen, z, nbrs in reversed(pending):
        members = frozenset(_bits(chosen))
        if d == 0:
            color = assignment[lowest]
        else:
            for u in members:
                assignment[u] = assignment[z]
            used = 0
            for u in _bits(nbrs):
                used |= 1 << assignment[u]
            color = (~used & (used + 1)).bit_length() - 1
            if color >= palette:
                raise PaletteExhausted(
                    f"all {palette} colors appear on the neighborhood of {v}"
                )
        if z is None:
            lowest = min(lowest, v)
        assignment[v] = color
        steps.append(TraceStep(v, d, members, z, color))
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
    """The minimum-degree greedy, in at most degeneracy + 1 colors: the
    contraction descent with nothing merged, under a palette of g.n + 1
    that no lift step can exhaust.  The returned palette is one above the
    largest color used."""
    coloring, _ = _descend_and_lift(dict(g._adj), lambda v, d, adj: 0, g.n + 1)
    return Coloring(coloring.assignment, max(coloring.assignment.values(), default=-1) + 1)
