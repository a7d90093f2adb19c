"""Exact clique-minor testing with verifiable witnesses.

has_clique_minor decides whether a graph contains a complete minor of a
given order by backtracking over branch sets: a partial list of disjoint
connected vertex sets is grown one set at a time, adding only vertices
adjacent to the growing set, and closed only once the set touches every
earlier set.  Branch sets are canonicalized by their minimum element
(seeds strictly increase, members stay above their seed), so every
candidate family is visited exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitExceeded
from .graph import Graph, _bits, induced_subgraph

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
        if not _connected_in(g, mask):
            return False
    for i, mi in enumerate(masks):
        ni = 0
        for v in _bits(mi):
            ni |= g.neighbor_mask(v)
        for mj in masks[i + 1 :]:
            if not ni & mj:
                return False
    return True


def _connected_in(g: Graph, mask: int) -> bool:
    seen = mask & -mask
    while True:
        grown = seen
        for v in _bits(seen):
            grown |= g.neighbor_mask(v)
        grown &= mask
        if grown == seen:
            return seen == mask
        seen = grown


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
    if g.n == 0:
        return None
    if t == 1:
        return MinorModel((frozenset({min(g.vertices)}),))

    h = _reduce(g, t)
    if h.n < t:
        return None

    clique = _find_clique(h, t)
    if clique is not None:
        return MinorModel(tuple(frozenset({v}) for v in sorted(clique)))

    masks = _search_branch_sets(h, t)
    if masks is None:
        return None
    return MinorModel(tuple(frozenset(_bits(mask)) for mask in masks))


def _reduce(g: Graph, t: int) -> Graph:
    """Drop vertices that cannot take part in any valid branch set:
    isolated vertices always, degree-1 vertices once t >= 3."""
    h = g
    while h.n:
        cutoff = 1 if t >= 3 else 0
        keep = [v for v in h.vertices if h.degree(v) > cutoff]
        if len(keep) == h.n:
            break
        h = induced_subgraph(h, keep)
    return h


def _find_clique(g: Graph, t: int) -> tuple[int, ...] | None:
    """A clique of size t as a subgraph, or None if this quick pass finds
    none.  Greedy always; exhaustive fallback only for t <= 8 (the main
    search stays complete either way)."""
    adj = {v: g.neighbor_mask(v) for v in g.vertices}
    for v in g.vertices:
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
    return next(_cliques(g, t), None)


def _cliques(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All k-cliques of g, each ascending, lazily in lexicographic order."""
    adj = {v: g.neighbor_mask(v) for v in g.vertices}

    def rec(cur: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        if len(cur) == k:
            yield cur
            return
        if len(cur) + cand.bit_count() < k:
            return
        for u in _bits(cand):
            yield from rec(cur + (u,), cand & adj[u] & ~((1 << (u + 1)) - 1))

    return rec((), g.vertex_mask)


def _search_branch_sets(g: Graph, t: int) -> list[int] | None:
    adj = {v: g.neighbor_mask(v) for v in g.vertices}
    full = g.vertex_mask

    def nbr_of(mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= adj[v]
        return out

    def components_of(mask: int) -> list[int]:
        comps = []
        rest = mask
        while rest:
            comp = rest & -rest
            while True:
                grown = (comp | nbr_of(comp)) & rest
                if grown == comp:
                    break
                comp = grown
            comps.append(comp)
            rest &= ~comp
        return comps

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
        for comp in components_of(avail):
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

    return advance([], full, -1)
