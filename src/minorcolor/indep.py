"""Exact maximum independent sets and the closed-form independence bounds.

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


def _capped_adj(g: Graph, cap: int | None) -> dict[int, int]:
    """g's adjacency masks, once g is within the search cap."""
    limit = DEFAULT_MIS_CAP if cap is None else cap
    if g.n > limit:
        raise ResourceLimitExceeded("independent-set search", g.n, limit)
    return g._adj


def independence_number(g: Graph, *, cap: int | None = None) -> int:
    """Exact independence number by branch and bound."""
    return _alpha_bb(_capped_adj(g, cap), g.vertex_mask)


def max_independent_set(g: Graph, *, cap: int | None = None) -> frozenset[int]:
    """An exact maximum independent set; deterministically the one whose
    sorted member list is lexicographically least, built by fixing
    vertices in ascending order whenever the optimum is preserved."""
    adj = _capped_adj(g, cap)
    target = _alpha_bb(adj, g.vertex_mask)
    chosen: list[int] = []
    rem = g.vertex_mask
    for v in adj:
        if len(chosen) == target:
            break
        if not (rem >> v) & 1:
            continue
        after_take = rem & ~(adj[v] | (1 << v))
        if len(chosen) + 1 + _alpha_bb(adj, after_take) == target:
            chosen.append(v)
            rem = after_take
        else:
            rem &= ~(1 << v)
    return frozenset(chosen)


def _greedy_is(adj: dict[int, int], mask: int) -> int:
    """Min-degree greedy independent set size; the starting incumbent."""
    size = 0
    while mask:
        best_v = -1
        best_d = 1 << 62
        for v in _bits(mask):
            d = (adj[v] & mask).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        size += 1
        mask &= ~(adj[best_v] | (1 << best_v))
    return size


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


def _alpha_bb(adj: dict[int, int], mask: int) -> int:
    """Exact alpha of the induced submask: branch on a maximum-degree
    vertex in or out, prune with the greedy clique-cover estimate, take
    degree <= 1 vertices outright."""
    best = _greedy_is(adj, mask)

    def bb(mask: int, size: int) -> None:
        nonlocal best
        while mask:
            picked = -1
            max_d = -1
            max_v = -1
            for v in _bits(mask):
                d = (adj[v] & mask).bit_count()
                if d <= 1:
                    picked = v
                    break
                if d > max_d:
                    max_d, max_v = d, v
            if picked >= 0:
                size += 1
                mask &= ~(adj[picked] | (1 << picked))
                continue
            if size + _cover_bound(adj, mask) <= best:
                return
            bb(mask & ~(adj[max_v] | (1 << max_v)), size + 1)
            bb(mask & ~(1 << max_v), size)
            return
        if size > best:
            best = size

    bb(mask, 0)
    return best
