"""Seeded generators of graphs that exclude a known clique minor.

Four families are minor-free by construction (forest, series_parallel,
planar_triangulation, clique_paste of the known multipartite blocks);
complete_multipartite blocks carry known guarantees; filtered_random is
certified by querying the exact oracle after every tentative edge it has
not already seen rejected.
Equal specs always produce identical graphs.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass

from .graph import Graph, _bits
from .minor import _cliques, has_clique_minor


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int | None = None
    seed: int = 0
    parts: tuple[int, ...] | None = None  # complete_multipartite
    blocks: tuple[tuple[int, ...], ...] | None = None  # clique_paste
    clique_size: int | None = None  # clique_paste identification size
    forbid: int | None = None  # filtered_random: forbidden minor order
    max_rejects: int = 30


FAMILIES = (
    "forest",
    "series_parallel",
    "planar_triangulation",
    "complete_multipartite",
    "clique_paste",
    "filtered_random",
)

# Smallest complete-minor order each named block excludes (oracle-exact);
# pasting blocks on cliques preserves these.
BLOCK_MINOR_FREE_ORDER = {
    (2, 2, 2, 2, 2): 8,
    (2, 2, 2, 3, 3): 9,
    (1, 2, 2, 2, 2, 2): 9,
    (1, 2, 2, 2, 2): 8,
}


def generate(spec: GenSpec, *, cap: int | None = None) -> Graph:
    """The graph spec describes.  cap is the exact oracle's size cap for
    filtered_random; it can make generation fail, never change the graph."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.family == "forest":
        return _forest(_require_n(spec), spec.seed)
    if spec.family == "series_parallel":
        return _series_parallel(_require_n(spec), spec.seed)
    if spec.family == "planar_triangulation":
        return _planar_triangulation(_require_n(spec), spec.seed)
    if spec.family == "complete_multipartite":
        if not spec.parts:
            raise ValueError("complete_multipartite needs part sizes")
        g = complete_multipartite(spec.parts)
        if spec.n is not None and spec.n != g.n:
            raise ValueError(f"parts sum to {g.n}, spec says n={spec.n}")
        return g
    if spec.family == "clique_paste":
        if not spec.blocks or not spec.clique_size:
            raise ValueError("clique_paste needs blocks and clique_size")
        g = clique_paste(spec.blocks, spec.clique_size, spec.seed)
        if spec.n is not None and spec.n != g.n:
            raise ValueError(f"blocks paste to {g.n} vertices, spec says n={spec.n}")
        return g
    if not spec.forbid or spec.forbid < 2:
        raise ValueError("filtered_random needs a forbidden minor order >= 2")
    if spec.max_rejects < 0:
        raise ValueError("filtered_random needs max_rejects >= 0")
    return filtered_random(
        _require_n(spec),
        spec.seed,
        spec.forbid,
        max_rejects=spec.max_rejects,
        oracle_cap=cap,
    )


def certify(g: Graph, order: int, *, cap: int | None = None) -> bool:
    """True iff the exact oracle finds no complete minor of the order."""
    return has_clique_minor(g, order, cap=cap) is None


def _require_n(spec: GenSpec) -> int:
    if spec.n is None or spec.n < 1:
        raise ValueError(f"family {spec.family!r} needs n >= 1")
    return spec.n


def _forest(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.append((rng.randrange(v), v))
    return Graph(range(n), edges)


def _series_parallel(n: int, seed: int) -> Graph:
    """Random two-terminal series/parallel composition of single edges."""
    if n == 1:
        return Graph([0])
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    next_id = 2

    def alloc() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def build(size: int, s: int, t: int) -> None:
        if rng.random() < 0.35:
            edges.add((min(s, t), max(s, t)))
        if size == 2:
            edges.add((min(s, t), max(s, t)))
            return
        if size < 4 or rng.random() < 0.55:
            first = rng.randint(2, size - 1)
            mid = alloc()
            build(first, s, mid)
            build(size + 1 - first, mid, t)
        else:
            first = rng.randint(3, size - 1)
            build(first, s, t)
            build(size + 2 - first, s, t)

    build(n, 0, 1)
    return Graph(range(n), edges)


def _planar_triangulation(n: int, seed: int) -> Graph:
    """Stacked triangulation: repeatedly split a random face with a new
    vertex, so the result is planar and maximal with 3n - 6 edges."""
    if n < 3:
        raise ValueError("a triangulation needs n >= 3")
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update(((a, v), (b, v), (c, v)))
        faces.extend(((a, b, v), (b, c, v), (a, c, v)))
    return Graph(range(n), edges)


def complete_multipartite(parts: tuple[int, ...] | list[int]) -> Graph:
    if not parts or any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    part_of = []
    for i, p in enumerate(parts):
        part_of.extend([i] * p)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph(range(n), edges)


def clique_paste(
    blocks: tuple[tuple[int, ...], ...], k: int, seed: int
) -> Graph:
    """Paste complete multipartite blocks along k-cliques.

    Each new block is glued by identifying one of its k-cliques with a
    uniformly chosen k-clique of the graph built so far (smallest ids
    matched first); no edges are ever deleted.
    """
    if k < 1:
        raise ValueError("clique size must be >= 1")
    if not blocks:
        raise ValueError("need at least one block")
    rng = random.Random(seed)
    adj = dict(complete_multipartite(blocks[0])._adj)
    host_cliques = list(_cliques(adj, k))
    if not host_cliques:
        raise ValueError(f"block {blocks[0]} has no {k}-clique to paste on")
    for parts in blocks[1:]:
        block = complete_multipartite(parts)._adj
        block_cliques = list(_cliques(block, k))
        if not block_cliques:
            raise ValueError(f"block {parts} has no {k}-clique to paste on")
        host_clique = host_cliques[rng.randrange(len(host_cliques))]
        block_clique = block_cliques[rng.randrange(len(block_cliques))]
        relabel = dict(zip(block_clique, host_clique))
        for v in block:
            if v not in relabel:
                relabel[v] = len(adj)
                adj[relabel[v]] = 0
        for v, mask in block.items():
            adj[relabel[v]] |= sum(1 << relabel[u] for u in _bits(mask))
        # A k-clique of the paste lies inside the host or inside the block,
        # so the new ones are the block's other than the glued one.
        for clique in block_cliques:
            if clique != block_clique:
                insort(host_cliques, tuple(sorted(relabel[u] for u in clique)))
    return Graph._from_adj(adj)


def filtered_random(
    n: int,
    seed: int,
    forbid: int,
    *,
    max_rejects: int = 30,
    oracle_cap: int | None = None,
) -> Graph:
    """Grow a random graph one edge at a time, dropping any addition the
    oracle says creates the forbidden minor; stop after max_rejects
    consecutive rejections (edge-maximal-ish instances).

    A rejected pair is remembered and, when drawn again, rejected without
    asking the oracle.  That is sound because the graph only gains edges
    and having a K_t minor is monotone under adding edges: a pair whose
    edge once created the minor still creates it.  The draws and the
    output are the same as with an oracle call every time."""
    rng = random.Random(seed)
    adj = {v: 0 for v in range(n)}
    rejected: set[tuple[int, int]] = set()
    rejections = 0
    while rejections < max_rejects:
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not adj[u] >> v & 1
        ]
        if not non_edges:
            break
        u, v = non_edges[rng.randrange(len(non_edges))]
        if (u, v) in rejected:
            rejections += 1
            continue
        trial = dict(adj)
        trial[u] |= 1 << v
        trial[v] |= 1 << u
        if has_clique_minor(Graph._from_adj(trial), forbid, cap=oracle_cap) is None:
            adj = trial
            rejections = 0
        else:
            rejected.add((u, v))
            rejections += 1
    return Graph._from_adj(adj)
