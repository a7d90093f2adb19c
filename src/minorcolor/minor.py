"""Exact clique-minor testing with verifiable witnesses.

has_clique_minor decides whether a graph contains a complete minor of a
given order t by backtracking over branch sets: a partial list of disjoint
connected vertex sets is grown one set at a time, adding only vertices
adjacent to the growing set, and closed only once the set touches every
earlier set.  Branch sets are canonicalized by their minimum element
(seeds strictly increase, members stay above their seed), so every
candidate family is visited exactly once.  Each closed set carries the
union of its members' neighborhoods, so a contact test against it is one
mask operation.

Before the search, two exact rules are applied to a fixpoint:

1. A simplicial vertex (its neighborhood is a clique) of degree < t-1 is
   deleted.
2. For t >= 4, a degree-2 vertex whose two neighbors are non-adjacent is
   merged into one of them, which is the same as deleting it and joining
   its neighbors by an edge.

Each rule deletes or contracts, so the reduced graph is a minor of the
input and has no K_t minor the input lacks.  Neither rule loses one: take
a K_t model of the graph and such a vertex v in a branch set B (a vertex
in no branch set can simply go).  B must touch t-1 other branch sets, so
B is not {v} alone: v touches at most deg(v) of them, and deg(v) < t-1
(rule 1) or deg(v) = 2 < 3 <= t-1 (rule 2).  So dropping v from B keeps B
connected and keeps every contact B had through v: v has a neighbor left
in B, and that neighbor is adjacent to each other neighbor of v, because
the neighbors are pairwise adjacent (rule 1) or the merge adds the edge
between them (rule 2).  A witness found after reduction is lifted back by
replaying the merges in reverse: each absorbed vertex joins the branch
set that holds the vertex it was merged into.  Deleted vertices lie in no
branch set.

When the quick clique pass finds no K_t, three certificates that the
reduced graph has no K_t minor are tried before the search, cheapest
first, and a fourth once a short search has not finished.  The reduced
graph has a K_t minor iff the input has one, so any certificate answers
for the input.

1. Clique count.  In a K_t model the s single-vertex branch sets are
   pairwise adjacent, so they form a clique and take distinct colors in
   any proper coloring with k colors: s <= k.  The other t - s sets have
   two vertices or more, so n >= s + 2(t - s) = 2t - s >= 2t - k.  A
   greedy coloring with n + k < 2t proves there is no K_t minor.
2. Elimination width.  Eliminating a vertex joins its neighbors into a
   clique; the width of an order is the largest degree met, and bounds
   the treewidth from above.  Treewidth does not grow under taking minors
   and K_t has treewidth t-1, so an order of width < t-1 proves there is
   no K_t minor.  The order is built by min-fill (Bodlaender and Koster,
   "Treewidth computations I. Upper bounds", 2010) among the vertices of
   degree < t-1, and given up once none is left (_min_fill, which
   certificate 4 reads too).
3. Planarity, for t >= 5.  A planar graph has no K5 minor (Wagner 1937),
   so none of order t >= 5 either.  The evidence is a rotation system of
   a plane embedding (planar.rotation_system).  Testing the reduced graph
   instead of the input loses no planar input: the reduced graph is a
   minor of the input, and minors of planar graphs are planar.  The test
   runs last, since the other two are cheaper.

The fourth is tried only once the search has visited 512 nodes (grow
calls) without an answer.  If it does not decide either, the search
starts over with no budget, wasting at most those 512 nodes.

4. Torsos.  Take a vertex set S whose removal leaves components C_1, ...,
   C_k with k >= 2.  The torso T_i is G[S + C_i] with every pair in S
   joined.  G is a subgraph of the graph H glued from the T_i along S, in
   which S is a clique separator, and a K_t minor of H lies in one of the
   T_i (Tarjan, "Decomposition by clique separators", 1985).  So if no T_i
   has a K_t minor, G has none.  Each T_i has fewer vertices than G, so
   deciding it with the whole procedure again terminates.  A K_t minor in
   a torso says nothing about G unless S is a clique, so the test only
   ever certifies absence.  The candidates for S are the filled
   neighborhoods that the elimination of certificate 2 removes, each of
   fewer than t-1 vertices; the first two that split G are tried.
   Building and deciding torsos costs far more than a search that soon
   finds a model, hence the budget.  Over fourteen filtered_random gens
   (forbid 6 and 7; n = 11 at seeds 0-2, n = 10 at seeds 0-3), 132 of the 190 searches that found a
   model needed at most 256 nodes and 153 at most 512, while every one of
   the 58 searches that found none needed more than 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitExceeded
from .graph import Graph, _bits, _closure, _Peel
from .planar import rotation_system

DEFAULT_SEARCH_CAP = 40

# branch-set nodes the first search may visit before the torsos are tried
_FIRST_BUDGET = 512


class _OutOfBudget(Exception):
    """A budgeted branch-set search visited more nodes than it may."""


@dataclass(frozen=True)
class MinorModel:
    """Witness that K_t is a minor: t disjoint connected branch sets,
    pairwise joined by at least one host edge."""

    branch_sets: tuple[frozenset[int], ...]

    @property
    def order(self) -> int:
        return len(self.branch_sets)

    def to_lines(self) -> list[str]:
        return [
            f"set_{i}: " + " ".join(str(v) for v in sorted(s))
            for i, s in enumerate(self.branch_sets)
        ]


def validate_model(g: Graph, model: MinorModel) -> bool:
    """Independent check of all three branch-set invariants against g."""
    masks = []
    for s in model.branch_sets:
        if not s:
            return False
        mask = 0
        for v in s:
            if not g.has_vertex(v):
                return False
            mask |= 1 << v
        masks.append(mask)
    seen = 0
    for mask in masks:
        if mask & seen:
            return False
        seen |= mask
    for mask in masks:
        if _closure(g._adj, mask & -mask, mask) != mask:
            return False
    for i, mi in enumerate(masks):
        ni = 0
        for v in _bits(mi):
            ni |= g.neighbor_mask(v)
        for mj in masks[i + 1 :]:
            if not ni & mj:
                return False
    return True


def has_clique_minor(
    g: Graph, t: int, *, cap: int = DEFAULT_SEARCH_CAP
) -> MinorModel | None:
    """Return a branch-set witness of a K_t minor, or None if there is none.

    Deterministic: vertices are always considered in ascending id order.
    Raises ResourceLimitExceeded when g has more than cap vertices.
    """
    if t < 1:
        raise ValueError("minor order must be >= 1")
    if g.n > cap:
        raise ResourceLimitExceeded("clique-minor search", g.n, cap)
    masks = _model_masks(g, t)
    if masks is None:
        return None
    return MinorModel(tuple(frozenset(_bits(mask)) for mask in masks))


def _model_masks(g: Graph, t: int) -> list[int] | None:
    """The member masks of a K_t model of g, or None if g has none: the
    decision of has_clique_minor, without its checks, for the torsos to
    recurse into."""
    adj, merges = _reduce(g, t)
    if len(adj) < t:
        return None
    clique = _find_clique(adj, t)
    if clique is not None:
        masks = [1 << v for v in sorted(clique)]
    elif _absence_certificate(adj, t) is not None:
        return None
    else:
        try:
            masks = _search_branch_sets(adj, t, _FIRST_BUDGET)
        except _OutOfBudget:
            if _torso_certificate(adj, t) is not None:
                return None
            masks = _search_branch_sets(adj, t)
        if masks is None:
            return None
    for kept, absorbed in reversed(merges):
        for i, mask in enumerate(masks):
            if mask >> kept & 1:
                masks[i] = mask | 1 << absorbed
                break
    return masks


def _reduce(g: Graph, t: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Apply the two exact rules of the module docstring to a fixpoint.

    Returns the reduced graph as a {vertex: neighbor mask} dict, which has
    a K_t minor iff g has one, and the merges in the order made, as (kept
    id, absorbed id) pairs.  A vertex is rechecked whenever its
    neighborhood changes, lowest id first.
    """
    peel = _Peel(dict(g._adj))
    adj = peel.adj
    merges = []
    todo = g.vertex_mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        nbrs = adj[v]
        d = nbrs.bit_count()
        if d >= t - 1:
            continue
        if all(nbrs & ~adj[u] == 1 << u for u in _bits(nbrs)):
            peel.delete(v)
            todo |= nbrs
        elif d == 2 and t >= 4:
            # not simplicial, so the two neighbors are non-adjacent
            a = (nbrs & -nbrs).bit_length() - 1
            kept = peel.contract(1 << v | 1 << a)
            absorbed = v + a - kept
            merges.append((kept, absorbed))
            todo = (todo | adj[kept] | 1 << kept) & ~(1 << absorbed)
    return adj, merges


def _find_clique(adj: dict[int, int], t: int) -> tuple[int, ...] | None:
    """A clique of size t as a subgraph, or None if this quick pass finds
    none.  Greedy always; exhaustive fallback only for t <= 8 (the main
    search stays complete either way)."""
    for v in adj:
        clique = [v]
        cand = adj[v]
        while cand and len(clique) < t:
            u = (cand & -cand).bit_length() - 1
            clique.append(u)
            cand &= adj[u]
        if len(clique) >= t:
            return tuple(clique[:t])
    if t > 8:
        return None
    return next(_cliques(adj, t), None)


def _absence_certificate(
    adj: dict[int, int], t: int
) -> tuple[str, dict[int, int] | list[int] | dict[int, list[int]]] | None:
    """Evidence that the graph adj has no K_t minor, or None if no
    certificate of the module docstring decides: ("clique_count", a proper
    coloring as {vertex: color}) with len(adj) + colors < 2t, ("width", an
    elimination order of every vertex) whose width is below t-1, or, for
    t >= 5, ("planar", a rotation system as {vertex: neighbors in cyclic
    order})."""
    color: dict[int, int] = {}
    classes: list[int] = []
    for v, nbrs in adj.items():
        c = next((c for c, cls in enumerate(classes) if not cls & nbrs), len(classes))
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        color[v] = c
    if len(adj) + len(classes) < 2 * t:
        return "clique_count", color
    steps = _min_fill(adj, t)
    if len(adj) - len(steps) < t:
        order = [v for v, _ in steps]
        eliminated = set(order)
        return "width", order + [v for v in adj if v not in eliminated]
    if t >= 5:
        rotation = rotation_system(adj)
        if rotation is not None:
            return "planar", rotation
    return None


def _min_fill(adj: dict[int, int], t: int) -> list[tuple[int, int]]:
    """The min-fill elimination of the graph adj among the vertices of
    degree < t-1, as (vertex, filled neighbor mask) pairs in the order
    eliminated: each step removes the vertex whose elimination adds the
    fewest edges, the first in adj's order on ties, and joins its neighbors
    into a clique.  Stops once fewer than t vertices are left (any order of
    them has width < t-1) or none of degree < t-1 is."""
    work = dict(adj)
    steps = []
    while len(work) >= t:
        best = best_fill = None
        for v, nbrs in work.items():
            d = nbrs.bit_count()
            if d < t - 1:
                # twice the number of edges eliminating v would add
                fill = sum((nbrs & ~work[u]).bit_count() for u in _bits(nbrs)) - d
                if best_fill is None or fill < best_fill:
                    best, best_fill = v, fill
        if best is None:
            break
        nbrs = work.pop(best)
        for u in _bits(nbrs):
            work[u] = (work[u] | nbrs) & ~(1 << u | 1 << best)
        steps.append((best, nbrs))
    return steps


def _torso_certificate(adj: dict[int, int], t: int) -> int | None:
    """A separator S of the graph adj none of whose torsos has a K_t minor,
    which proves adj has none (module docstring), or None if neither of
    the first two filled neighborhoods of _min_fill that split adj is one.
    Each torso is built, decided and dropped in turn."""
    every = sum(1 << v for v in adj)
    tried = 0
    for _, sep in _min_fill(adj, t):
        comps = []
        rest = every & ~sep
        while rest:
            comp = _closure(adj, rest & -rest, rest)
            rest &= ~comp
            comps.append(comp)
        if len(comps) < 2:
            continue
        if all(_model_masks(_torso(adj, sep, comp), t) is None for comp in comps):
            return sep
        tried += 1
        if tried == 2:
            return None
    return None


def _torso(adj: dict[int, int], sep: int, comp: int) -> Graph:
    """G[S + C] for the graph G = adj, separator mask S and component mask
    C, with every pair in S joined."""
    within = sep | comp
    return Graph._from_adj(
        {
            v: (adj[v] | sep if sep >> v & 1 else adj[v]) & within & ~(1 << v)
            for v in _bits(within)
        }
    )


def _cliques(adj: dict[int, int], k: int) -> Iterator[tuple[int, ...]]:
    """All k-cliques of the graph adj, each ascending, lazily in
    lexicographic order."""

    def rec(cur: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        if len(cur) == k:
            yield cur
            return
        if len(cur) + cand.bit_count() < k:
            return
        for u in _bits(cand):
            yield from rec(cur + (u,), cand & adj[u] & ~((1 << (u + 1)) - 1))

    return rec((), sum(1 << v for v in adj))


def _search_branch_sets(
    adj: dict[int, int], t: int, budget: int | None = None
) -> list[int] | None:
    """The member masks of t branch sets forming a K_t model in the graph
    adj, in the order they were closed, or None if there is no K_t minor.
    Raises _OutOfBudget once more than budget nodes (grow calls) are
    visited, if a budget is given.

    Each closed set is one (member mask, neighbor-union mask) record, and
    sets lists them in closing order.  live is the mask of the unassigned
    vertices above the newest set's seed: the only vertices that set, and
    every set after it, may still take.  While a set grows, pending holds
    the records of the closed sets it does not touch yet; it may close only
    once pending is empty.
    """
    sets: list[tuple[int, int]] = []
    limit = math.inf if budget is None else budget
    nodes = 0

    def advance(live: int) -> list[int] | None:
        if len(sets) == t:
            return [mask for mask, _ in sets]
        need = t - len(sets)
        # every future set needs its own vertex next to every closed set
        for _, snbr in sets:
            if (snbr & live).bit_count() < need:
                return None
        # future sets are pairwise adjacent, so they all live inside one
        # connected component of the live vertices
        seed_pool = 0
        rest = live
        while rest:
            comp = _closure(adj, rest & -rest, rest)
            rest &= ~comp
            if comp.bit_count() < need:
                continue
            if all((snbr & comp).bit_count() >= need for _, snbr in sets):
                seed_pool |= comp
        for seed in _bits(seed_pool):
            pending = [rec for rec in sets if not adj[seed] & rec[0]]
            above = live & ~((1 << (seed + 1)) - 1)
            got = grow(1 << seed, adj[seed], 0, above, pending)
            if got is not None:
                return got
        return None

    def grow(
        cur: int,
        cur_nbr: int,
        excluded: int,
        live: int,
        pending: list[tuple[int, int]],
    ) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _OutOfBudget
        need = t - len(sets) - 1
        if live.bit_count() < need:
            return None
        # closing is pointless unless enough live vertices sit next to this
        # set to give every future set its own contact
        if not pending and (cur_nbr & live).bit_count() >= need:
            sets.append((cur, cur_nbr))
            got = advance(live)
            sets.pop()
            if got is not None:
                return got
        # add the lowest candidate, then exclude it for good
        cands = cur_nbr & live & ~excluded
        while cands:
            if pending:
                # the set can only ever reach vertices in its connected closure
                reach = _closure(adj, cur, cur | (live & ~excluded))
                for _, snbr in pending:
                    if not snbr & reach:
                        return None
            c = (cands & -cands).bit_length() - 1
            cbit = 1 << c
            got = grow(
                cur | cbit,
                cur_nbr | adj[c],
                excluded,
                live & ~cbit,
                [rec for rec in pending if not adj[c] & rec[0]],
            )
            if got is not None:
                return got
            excluded |= cbit
            cands ^= cbit
        return None

    return advance(sum(1 << v for v in adj))
