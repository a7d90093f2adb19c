"""Exact maximum independent sets and the closed-form independence bounds.

_max_independent_mask is the one exact search, and the one place its
vertex cap (default 64) is enforced.  It runs over a {vertex: neighbor
mask} dict restricted to a vertex mask, so the coloring descent runs it
on a neighborhood of its working graph without copying one out;
max_independent_set is its wrapper for a Graph and independence_number
that set's size.  Its docstring says why the set it returns is the
lexicographically least maximum one.

The three bound variants give a guaranteed independent-set size for an
n-vertex graph with no complete minor of order t+1:

    (a)  (2*alpha - 1) * t        >= n
    (b)  (2*alpha - 1) * (2t - 5) >= 2n - 5    (t >= 5)
    (c)  (2 - gamma) * alpha * t  >= n

with gamma = (80 - sqrt(5392)) / 126, approximately 0.052141.  All three
are solved in integer arithmetic, so no rounding can shift the result.
For (c), 1 / (2 - gamma) = (172 - sqrt(5392)) / 192, so alpha is the
ceiling of (172n - n*sqrt(5392)) / (192t).  For n >= 1, n*sqrt(5392) =
4n*sqrt(337) is irrational and lies strictly between s = isqrt(5392 n^2)
and s + 1, so no integer lies between the numerator and 172n - s, and
the ceiling equals that of (172n - s) / (192t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ResourceLimitExceeded
from .graph import Graph, _bits

DEFAULT_MIS_CAP = 64


@dataclass(frozen=True)
class AlphaBound:
    n: int
    t: int
    variant: str
    alpha: int


def gamma_constant() -> float:
    """The constant of bound variant (c), about 0.052141."""
    return (80.0 - math.sqrt(5392.0)) / 126.0


def independence_guarantee(n: int, t: int, variant: str) -> AlphaBound:
    """Smallest positive integer alpha satisfying the chosen variant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2")
    if variant == "a":
        alpha = -((n + t) // -(2 * t))
    elif variant == "b":
        if t < 5:
            raise ValueError("variant b requires t >= 5")
        alpha = -((n + t - 5) // -(2 * t - 5))
    elif variant == "c":
        alpha = -((math.isqrt(5392 * n * n) - 172 * n) // (192 * t))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return AlphaBound(n=n, t=t, variant=variant, alpha=alpha)


def applicable_variants(t: int) -> tuple[str, ...]:
    return ("a", "b", "c") if t >= 5 else ("a", "c")


def independence_number(g: Graph, *, cap: int = DEFAULT_MIS_CAP) -> int:
    """Exact independence number: the size of max_independent_set."""
    return len(max_independent_set(g, cap=cap))


def max_independent_set(g: Graph, *, cap: int = DEFAULT_MIS_CAP) -> frozenset[int]:
    """An exact maximum independent set; deterministically the one whose
    sorted member list is lexicographically least (see
    _max_independent_mask)."""
    return frozenset(_bits(_max_independent_mask(g._adj, g.vertex_mask, cap)))


def _max_independent_mask(adj: dict[int, int], mask: int, cap: int = DEFAULT_MIS_CAP) -> int:
    """The lexicographically least maximum independent set of the subgraph
    that the vertex mask induces in adj, as a mask.  Every step ANDs with
    mask, so adj may hold more vertices than mask, and its masks may reach
    outside mask.  A mask of more than cap vertices raises
    ResourceLimitExceeded.

    The greedy set takes the lowest vertex and drops its closed
    neighborhood until mask is used up.  Where another independent set
    first differs from it, the greedy set holds the lower vertex, since it
    took the lowest vertex that their common prefix left free; so when it
    is maximum it is the answer.  It is returned at once when its size
    meets the clique-cover bound of mask, which proves it maximum.
    Otherwise the branch and bound starts with it as the best set and
    keeps only strictly larger ones, so it returns the first maximum set
    it meets, or the greedy set if none is larger.  The lowest remaining
    vertex is taken before it is left out, so sets of equal size are met
    in lexicographic order.  A vertex with no neighbor left is taken
    outright; it is in every maximum set of its branch, and removing it
    changes no other vertex's degree.  A branch is cut only when its size
    plus a clique-cover bound cannot beat the best size so far, so a
    starting set that is not maximum cuts no branch that leads to a
    maximum set.
    """
    size = mask.bit_count()
    if size > cap:
        raise ResourceLimitExceeded("independent-set search", size, cap)
    best, rest = 0, mask
    while rest:
        low = rest & -rest
        best |= low
        rest &= ~(adj[low.bit_length() - 1] | low)
    best_size = best.bit_count()
    if best_size == _cover_bound(adj, mask):
        return best

    def bb(mask: int, taken: int, size: int) -> None:
        nonlocal best, best_size
        for v in _bits(mask):
            if not adj[v] & mask:
                taken |= 1 << v
                size += 1
        mask &= ~taken
        if not mask:
            if size > best_size:
                best, best_size = taken, size
            return
        if size + _cover_bound(adj, mask) <= best_size:
            return
        low = mask & -mask
        bb(mask & ~(adj[low.bit_length() - 1] | low), taken | low, size + 1)
        bb(mask ^ low, taken, size)

    bb(mask, 0, 0)
    return best


def _cover_bound(adj: dict[int, int], mask: int) -> int:
    """Greedy clique cover of mask; its size bounds alpha from above."""
    count = 0
    while mask:
        v = (mask & -mask).bit_length() - 1
        count += 1
        cand = adj[v] & mask
        mask &= ~(1 << v)
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= adj[u]
            mask &= ~(1 << u)
    return count
