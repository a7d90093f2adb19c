"""Exact clique-minor testing with verifiable witnesses.

has_clique_minor decides whether a graph contains a complete minor of a
given order t by backtracking over branch sets: a partial list of disjoint
connected vertex sets is grown one set at a time, adding only vertices
adjacent to the growing set, and closed only once the set touches every
earlier set.  Branch sets are canonicalized by their minimum element
(seeds strictly increase, members stay above their seed), so every
candidate family is visited exactly once.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitExceeded
from .graph import Graph, _bits, _Peel

DEFAULT_SEARCH_CAP = 40

# Maximum edge counts of graphs with no complete minor of the keyed order:
# order -> (coeff, const, min_vertices) meaning m <= coeff*n - const once
# n >= min_vertices.  The order-9 row is applied only from n >= 5; below
# that the bound is treated as inconclusive.
EXTREMAL_EDGE_BOUNDS: dict[int, tuple[int, int, int]] = {
    5: (3, 6, 3),
    6: (4, 10, 4),
    7: (5, 15, 5),
    8: (6, 20, 5),
    9: (7, 27, 5),
    10: (11, 66, 10),
    11: (13, 89, 11),
}


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


def _closure(adj: dict[int, int], start: int, within: int) -> int:
    """The vertices of the mask within reachable from the mask start
    (a subset of within) along edges inside within."""
    reach = start
    while True:
        grown = reach
        for v in _bits(reach):
            grown |= adj[v]
        grown &= within
        if grown == reach:
            return reach
        reach = grown


def edge_count_forces_minor(g: Graph, order: int) -> bool:
    """True means g certainly has a complete minor of the given order,
    by exceeding the extremal edge count of the minor-free class.
    False is inconclusive (including when g is below the row's vertex
    minimum, where the bound does not apply)."""
    row = EXTREMAL_EDGE_BOUNDS.get(order)
    if row is None:
        raise ValueError(f"no edge-count row for minor order {order}")
    coeff, const, min_vertices = row
    if g.n < min_vertices:
        return False
    return g.m > coeff * g.n - const


def has_clique_minor(
    g: Graph, t: int, *, cap: int | None = None
) -> MinorModel | None:
    """Return a branch-set witness of a K_t minor, or None if there is none.

    Deterministic: vertices are always considered in ascending id order.
    Raises ResourceLimitExceeded above the search cap (default 40).
    """
    if t < 1:
        raise ValueError("minor order must be >= 1")
    limit = DEFAULT_SEARCH_CAP if cap is None else cap
    if g.n > limit:
        raise ResourceLimitExceeded("clique-minor search", g.n, limit)
    adj, merges = _reduce(g, t)
    if len(adj) < t:
        return None

    clique = _find_clique(adj, t)
    if clique is not None:
        masks = [1 << v for v in sorted(clique)]
    else:
        masks = _search_branch_sets(adj, t)
        if masks is None:
            return None
    for kept, absorbed in reversed(merges):
        for i, mask in enumerate(masks):
            if mask >> kept & 1:
                masks[i] = mask | 1 << absorbed
                break
    return MinorModel(tuple(frozenset(_bits(mask)) for mask in masks))


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


def _search_branch_sets(adj: dict[int, int], t: int) -> list[int] | None:
    def nbr_of(mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= adj[v]
        return out

    # sets holds (member mask, union-of-neighborhoods mask) per closed set
    def advance(
        sets: list[tuple[int, int]], unassigned: int, prev_seed: int
    ) -> list[int] | None:
        if len(sets) == t:
            return [mask for mask, _ in sets]
        avail = unassigned & ~((1 << (prev_seed + 1)) - 1)
        need = t - len(sets)
        if avail.bit_count() < need:
            return None
        # every future set needs its own vertex next to every closed set
        for _, snbr in sets:
            if (snbr & avail).bit_count() < need:
                return None
        # future sets are pairwise adjacent, so they all live inside one
        # connected component of the available vertices
        seed_pool = 0
        rest = avail
        while rest:
            comp = _closure(adj, rest & -rest, rest)
            rest &= ~comp
            if comp.bit_count() < need:
                continue
            if all((snbr & comp).bit_count() >= need for _, snbr in sets):
                seed_pool |= comp
        if not seed_pool:
            return None
        for seed in _bits(seed_pool):
            pending = [smask for smask, _ in sets if not adj[seed] & smask]
            got = grow(
                sets,
                1 << seed,
                adj[seed],
                0,
                unassigned & ~(1 << seed),
                seed,
                pending,
                True,
            )
            if got is not None:
                return got
        return None

    def grow(
        sets: list[tuple[int, int]],
        cur: int,
        cur_nbr: int,
        excluded: int,
        unassigned: int,
        seed: int,
        pending: list[int],
        can_close: bool,
    ) -> list[int] | None:
        above_seed = ~((1 << (seed + 1)) - 1)
        if (unassigned & above_seed).bit_count() < t - len(sets) - 1:
            return None
        # closing is pointless unless enough unassigned vertices sit next to
        # this set to give every future set its own contact
        if (
            can_close
            and not pending
            and (cur_nbr & unassigned).bit_count() >= t - len(sets) - 1
        ):
            sets.append((cur, cur_nbr))
            got = advance(sets, unassigned, seed)
            sets.pop()
            if got is not None:
                return got
        allowed = unassigned & ~excluded & above_seed
        cands = cur_nbr & allowed
        if not cands:
            return None
        if pending:
            # the set can only ever reach vertices in its connected closure
            reach = cur
            while True:
                grown = (reach | nbr_of(reach)) & (cur | allowed)
                if grown == reach:
                    break
                reach = grown
            for smask in pending:
                if not nbr_of(smask) & reach:
                    return None
        c = (cands & -cands).bit_length() - 1
        cbit = 1 << c
        got = grow(
            sets,
            cur | cbit,
            cur_nbr | adj[c],
            excluded,
            unassigned & ~cbit,
            seed,
            [smask for smask in pending if not adj[c] & smask],
            True,
        )
        if got is not None:
            return got
        return grow(sets, cur, cur_nbr, excluded | cbit, unassigned, seed, pending, False)

    return advance([], sum(1 << v for v in adj), -1)
