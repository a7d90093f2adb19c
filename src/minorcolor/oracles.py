"""Brute-force reference oracles.

These are deliberately naive and fully independent of the main search
code: cross-validation tests compare the fast implementations against
them at desk scale.  None of them should be used on graphs beyond a
dozen vertices or so.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .graph import Graph, _bits

_PARTITION_CACHE: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}


def _subset_partitions(verts: tuple[int, ...], blocks: int) -> list[tuple[int, ...]]:
    """All partitions of every subset of verts into exactly `blocks` nonempty
    blocks, each partition as a tuple of bitmasks.  Canonical: blocks are
    opened in ascending order of their minimum element."""
    key = (verts, blocks)
    cached = _PARTITION_CACHE.get(key)
    if cached is not None:
        return cached
    out: list[tuple[int, ...]] = []
    n = len(verts)
    acc: list[int] = []

    def rec(i: int) -> None:
        if len(acc) + (n - i) < blocks:
            return
        if i == n:
            if len(acc) == blocks:
                out.append(tuple(acc))
            return
        bit = 1 << verts[i]
        rec(i + 1)  # leave verts[i] unused
        for j in range(len(acc)):
            acc[j] |= bit
            rec(i + 1)
            acc[j] ^= bit
        if len(acc) < blocks:
            acc.append(bit)
            rec(i + 1)
            acc.pop()

    rec(0)
    _PARTITION_CACHE[key] = out
    return out


def _block_tests(g: Graph) -> tuple[Callable[[int], int], Callable[[int], bool]]:
    """nbr(mask), the neighbors of a vertex mask of g, and connected(mask),
    whether it induces a connected subgraph; both memoised."""
    adj = {v: g.neighbor_mask(v) for v in g.vertices}
    conn_cache: dict[int, bool] = {}
    nbr_cache: dict[int, int] = {}

    def nbr(mask: int) -> int:
        got = nbr_cache.get(mask)
        if got is None:
            got = 0
            for v in _bits(mask):
                got |= adj[v]
            nbr_cache[mask] = got
        return got

    def connected(mask: int) -> bool:
        got = conn_cache.get(mask)
        if got is None:
            seen = mask & -mask
            while True:
                grown = (seen | nbr(seen)) & mask
                if grown == seen:
                    break
                seen = grown
            got = seen == mask
            conn_cache[mask] = got
        return got

    return nbr, connected


def brute_force_has_minor(g: Graph, t: int) -> bool:
    """Decide a complete-graph minor of order t by enumerating all
    partitions of all vertex subsets into t blocks and checking each
    candidate directly."""
    if t < 1:
        raise ValueError("minor order must be >= 1")
    if t == 1:
        return g.n >= 1
    nbr, connected = _block_tests(g)
    for parts in _subset_partitions(g.vertices, t):
        ok = True
        for block in parts:
            if not connected(block):
                ok = False
                break
        if not ok:
            continue
        for i in range(t):
            ni = nbr(parts[i])
            for j in range(i + 1, t):
                if not ni & parts[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_force_is_planar(g: Graph) -> bool:
    """Decide planarity by Wagner's theorem: g is planar iff it has neither
    a K5 nor a K3,3 minor.  A K3,3 minor is six connected blocks with a 3+3
    split whose nine cross pairs are all adjacent."""
    if brute_force_has_minor(g, 5):
        return False
    nbr, connected = _block_tests(g)
    for parts in _subset_partitions(g.vertices, 6):
        if not all(connected(block) for block in parts):
            continue
        for pair in combinations(range(1, 6), 2):
            left = (0, *pair)
            right = [j for j in range(6) if j not in left]
            if all(nbr(parts[i]) & parts[j] for i in left for j in right):
                return False
    return True


def brute_force_max_independent_set(g: Graph) -> frozenset[int]:
    """Maximum independent set by subset enumeration; among maximum sets,
    the one whose sorted member list is lexicographically least."""
    verts = g.vertices
    n = len(verts)
    adj = {v: g.neighbor_mask(v) for v in verts}
    best_size = -1
    best: list[tuple[int, ...]] = []
    for code in range(1 << n):
        members = [verts[i] for i in range(n) if (code >> i) & 1]
        mask = 0
        for v in members:
            mask |= 1 << v
        if any(adj[v] & mask for v in members):
            continue
        if len(members) > best_size:
            best_size = len(members)
            best = [tuple(members)]
        elif len(members) == best_size:
            best.append(tuple(members))
    return frozenset(min(best))


def brute_force_chromatic_number(g: Graph) -> int:
    """Exact chromatic number by backtracking, for graphs up to ~12 vertices."""
    if g.n == 0:
        return 0
    verts = sorted(g.vertices, key=lambda v: -g.degree(v))
    adj = {v: g.neighbor_mask(v) for v in verts}

    def colorable(k: int) -> bool:
        assignment: dict[int, int] = {}

        def rec(i: int, used: int) -> bool:
            if i == len(verts):
                return True
            v = verts[i]
            banned = 0
            for u in _bits(adj[v]):
                if u in assignment:
                    banned |= 1 << assignment[u]
            # allow at most one brand-new color to break color symmetry
            limit = min(k, used + 1)
            for c in range(limit):
                if (banned >> c) & 1:
                    continue
                assignment[v] = c
                if rec(i + 1, max(used, c + 1)):
                    return True
                del assignment[v]
            return False

        return rec(0, 0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    return g.n
