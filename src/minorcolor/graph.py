"""Simple undirected graphs over non-negative integer vertex ids.

A Graph stores only a {vertex: neighbor mask} dict with ascending keys,
which are its vertex set, and the counts n and m, so _from_adj is linear
in n.  A Graph is immutable.  The exact searches and the generators take
that dict once, at their public entry point, and work on it directly or,
to delete and contract vertices, on a copy held by _Peel, the one code
that deletes and contracts, at the end of this module.  _closure is the one
connected-closure helper; the minor search and the planarity test share it.
Vertex ids are stable: induced subgraphs and contractions never relabel
surviving vertices.

induced_subgraph, without_vertex and contract_set are copying wrappers,
the last two over _Peel, that only callers outside the package use, and
the `search-mindegree` command is the one caller of min_degree_vertex.
All four stay: they are exported API, and the benchmark's per-layer tracer
(bench/tracing.py) wraps each of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


class Graph:
    """Immutable simple undirected graph.

    Vertices are non-negative integers of any size, not necessarily
    contiguous (contraction leaves holes).  No self-loops, no parallel
    edges.  max_vertices, if given, refuses any id at or above it.
    """

    __slots__ = ("_adj", "n", "m")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        *,
        max_vertices: int | None = None,
    ):
        adj = {}
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
            if max_vertices is not None and v >= max_vertices:
                raise ValueError(f"vertex id {v} exceeds the size cap {max_vertices}")
            adj[v] = 0
        adj = dict.fromkeys(sorted(adj), 0)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (isinstance(u, int) and u in adj and isinstance(v, int) and v in adj):
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = adj
        self.n = len(adj)
        self.m = sum(mask.bit_count() for mask in adj.values()) // 2

    @classmethod
    def _from_adj(cls, adj: dict[int, int]) -> "Graph":
        """Internal fast path, linear in n: adj has ascending keys and neighbor
        masks that are already symmetric, irreflexive and within the keys."""
        g = object.__new__(cls)
        g._adj = adj
        g.n = len(adj)
        g.m = sum(mask.bit_count() for mask in adj.values()) // 2
        return g

    # Constructors for common families used throughout the tests.

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(range(n))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(range(n), [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._adj)

    @property
    def vertex_mask(self) -> int:
        """One bit per vertex; as wide as the largest id, so meant for the
        capped searches."""
        return sum(1 << v for v in self._adj)

    def has_vertex(self, v: int) -> bool:
        return isinstance(v, int) and v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self._adj[u] >> v) & 1)

    def neighbor_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.neighbor_mask(v)))

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending: the keys ascend, and
        so do the higher neighbors of each."""
        out = []
        for u, mask in self._adj.items():
            higher = mask >> (u + 1) << (u + 1)
            out.extend((u, w) for w in _bits(higher))
        return out

    def _check_vertex(self, v: int) -> None:
        if not self.has_vertex(v):
            raise ValueError(f"unknown vertex id {v}")

    def _check_subset(self, s: Iterable[int]) -> int:
        mask = 0
        for v in s:
            self._check_vertex(v)
            mask |= 1 << v
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class Coloring:
    """A total color assignment over a graph's vertices.

    assignment maps vertex id -> color index (0-based); palette_size is
    the number of colors the producer was permitted to use, so every
    assigned color must be < palette_size.
    """

    assignment: dict[int, int]
    palette_size: int

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by the vertex set s, ids preserved."""
    smask = g._check_subset(s)
    adj = {v: g._adj[v] & smask for v in _bits(smask)}
    return Graph._from_adj(adj)


def without_vertex(g: Graph, v: int) -> Graph:
    g._check_vertex(v)
    peel = _Peel(dict(g._adj))
    peel.delete(v)
    return Graph._from_adj(peel.adj)


def contract_set(g: Graph, s: Iterable[int]) -> tuple[Graph, int]:
    """Merge the vertex set s into a single vertex.

    The merged vertex takes the smallest id in s and becomes adjacent to
    every outside neighbor of s; loops and parallel edges are dropped.
    Survivors keep their ids.  Returns (new graph, merged vertex id).
    """
    smask = g._check_subset(s)
    if smask == 0:
        raise ValueError("cannot contract an empty vertex set")
    peel = _Peel(dict(g._adj))
    z = peel.contract(smask)
    return Graph._from_adj(peel.adj), z


def min_degree_vertex(g: Graph) -> tuple[int, int]:
    """A vertex of minimum degree and that degree; ties go to the smallest id."""
    if g.n == 0:
        raise ValueError("empty graph has no minimum-degree vertex")
    d, v = min((mask.bit_count(), v) for v, mask in g._adj.items())
    return v, d


# The working-graph kernel.  _Peel is the one code that deletes and
# contracts in a working {vertex: neighbor mask} dict: the coloring
# descent, the exact search's reductions (minor._reduce) and the copying
# wrappers above all go through it.  Keys are only ever deleted (a
# contraction keeps the smallest id of its set), so a dict built ascending
# stays ascending.  Besides the dict, _Peel keeps deg[v] ==
# adj[v].bit_count() and one bitmask per degree, with bit v set in
# buckets[d] exactly when deg[v] == d.  The lowest set bit of the lowest
# non-empty bucket is then the minimum-degree vertex with the smallest id,
# and delete and contract move only the vertices whose degree they change.


class _Peel:
    """The smallest-last degree queue of Matula & Beck (1983) over a
    working dict adj, which it owns: change adj only through delete and
    contract, or the buckets go stale."""

    __slots__ = ("adj", "deg", "buckets")

    def __init__(self, adj: dict[int, int]):
        self.adj = adj
        self.deg = deg = {}
        self.buckets = buckets = [0] * (len(adj) + 1)
        for v, mask in adj.items():
            deg[v] = d = mask.bit_count()
            buckets[d] |= 1 << v

    def min_degree(self) -> tuple[int, int]:
        buckets = self.buckets
        d = 0
        while not buckets[d]:
            d += 1
        return (buckets[d] & -buckets[d]).bit_length() - 1, d

    def delete(self, v: int) -> None:
        adj, deg, buckets = self.adj, self.deg, self.buckets
        vbit = 1 << v
        buckets[deg.pop(v)] ^= vbit
        for u in _bits(adj.pop(v)):
            adj[u] ^= vbit
            d = deg[u]
            deg[u] = d - 1
            ubit = 1 << u
            buckets[d] ^= ubit
            buckets[d - 1] |= ubit

    def contract(self, smask: int) -> int:
        """Merge the non-empty vertex set smask into its smallest id z and
        return z.  Only the outside neighbors of the members other than z
        get new masks; each such u goes from degree d to
        d - |adj[u] & smask| + 1, and z to |adj[z]|."""
        adj, deg, buckets = self.adj, self.deg, self.buckets
        z = (smask & -smask).bit_length() - 1
        zbit = 1 << z
        moved = 0
        for v in _bits(smask ^ zbit):
            buckets[deg.pop(v)] ^= 1 << v
            moved |= adj.pop(v)
        moved &= ~smask
        for u in _bits(moved):
            mask = adj[u]
            adj[u] = (mask & ~smask) | zbit
            k = (mask & smask).bit_count()
            if k > 1:
                d = deg[u]
                deg[u] = d - k + 1
                ubit = 1 << u
                buckets[d] ^= ubit
                buckets[d - k + 1] |= ubit
        adj[z] = znbrs = (adj[z] | moved) & ~smask
        buckets[deg[z]] ^= zbit
        deg[z] = d = znbrs.bit_count()
        buckets[d] |= zbit
        return z


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g joins two members of s."""
    smask = g._check_subset(s)
    for v in _bits(smask):
        if g._adj[v] & smask:
            return False
    return True


def is_proper_coloring(g: Graph, c: Coloring) -> bool:
    """True iff no edge of g is monochromatic under c.

    Raises ValueError if c's domain is not exactly g's vertex set, or if
    a color lies outside c's palette.
    """
    if set(c.assignment) != set(g._adj):
        raise ValueError("coloring domain does not match the graph's vertex set")
    for bad in c.assignment.values():
        if not 0 <= bad < c.palette_size:
            raise ValueError(f"color {bad} outside palette of size {c.palette_size}")
    # one vertex mask per color present, so the palette size costs nothing
    classes: dict[int, int] = {}
    for v, color in c.assignment.items():
        classes[color] = classes.get(color, 0) | 1 << v
    adj = g._adj
    return not any(adj[v] & classes[color] for v, color in c.assignment.items())
