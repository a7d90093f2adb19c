"""Planarity testing by path addition, with a rotation system as evidence.

rotation_system(adj) takes a graph as a {vertex: neighbor mask} dict and
returns each vertex's neighbors in the cyclic order of a plane embedding,
or None if the graph is not planar.

Two counting culls come first.  Let a planar graph on n >= 3 vertices have
m >= n edges, so it has a cycle, and let every cycle have length >= g.
Each face is bounded by closed walks of total length >= g, and each edge
is walked twice, so 2m >= g*f; Euler's formula gives f >= m - n + 2; so
(g-2)m <= g(n-2).  g is 3 in general (m <= 3n-6), 4 when no edge lies on
a triangle, and 5 when, in addition, no two vertices have two common
neighbors (no 4-cycle).

Otherwise each biconnected block with a cycle is embedded by path
addition (Demoucron, Malgrange and Pertuiset 1964).  The embedded part H
starts as a cycle, whose two faces are the cycle walked both ways round.
A fragment of the block relative to H is an edge outside H with both ends
in H, or a component of the block minus H with its edges to H; its
attachments are its vertices in H, at least two since the block is
biconnected.  A fragment can be drawn only inside a face that holds all
its attachments.  Each step finds those faces for every fragment: if a
fragment has none, the block is not planar; a fragment with exactly one
is drawn first, and otherwise any fragment may go in any of its faces
(the theorem of the method).  Drawing a path of the fragment between two
attachments splits its face in two.

Faces are kept as vertex cycles, all walked the same way round, so every
edge is walked once in each direction, and each vertex's rotation is read
off them: the face that enters v from u leaves v to the neighbor after u.
Blocks meet only at cut vertices, and a cut vertex's rotation is the
concatenation of its rotations in its blocks, which sets each block inside
one face corner of the others.
"""

from __future__ import annotations

from .graph import _bits, _closure


def rotation_system(adj: dict[int, int]) -> dict[int, list[int]] | None:
    """Each vertex's neighbors in the cyclic order of a plane embedding of
    the graph adj, or None if it is not planar.  adj is only read."""
    n = len(adj)
    m = sum(mask.bit_count() for mask in adj.values()) // 2
    if n >= 3 and m >= n and _too_many_edges(adj, n, m):
        return None
    rotation: dict[int, list[int]] = {v: [] for v in adj}
    for block in _blocks(adj):
        if block.bit_count() == 2:
            u, v = _bits(block)
            rotation[u].append(v)
            rotation[v].append(u)
            continue
        faces = _embed_block({v: adj[v] & block for v in _bits(block)})
        if faces is None:
            return None
        after: dict[int, dict[int, int]] = {v: {} for v in _bits(block)}
        for face in faces:
            for i, v in enumerate(face):
                after[v][face[i - 1]] = face[(i + 1) % len(face)]
        for v, nxt in after.items():
            u = first = next(iter(nxt))
            while True:
                rotation[v].append(u)
                u = nxt[u]
                if u == first:
                    break
    return rotation


def _too_many_edges(adj: dict[int, int], n: int, m: int) -> bool:
    """Whether m edges exceed (g-2)m <= g(n-2), the module docstring's
    bound, for the largest g that the triangle and 4-cycle checks allow."""
    if m > 3 * n - 6:
        return True
    if any(adj[u] & nbrs for nbrs in adj.values() for u in _bits(nbrs)):
        return False
    if m > 2 * n - 4:
        return True
    if 3 * m <= 5 * (n - 2):
        return False
    verts = list(adj)
    # no two vertices share two neighbors, so there is no 4-cycle
    return not any(
        (common := adj[u] & adj[v]) & (common - 1)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
    )


def _blocks(adj: dict[int, int]) -> list[int]:
    """The vertex masks of the biconnected blocks that have an edge
    (Hopcroft and Tarjan 1973), by an iterative depth-first search."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [root]
        frames = [(root, -1, _bits(adj[root]))]
        while frames:
            v, parent, nbrs = frames[-1]
            w = next(nbrs, None)
            if w is None:
                frames.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        block = 1 << parent
                        while True:
                            x = stack.pop()
                            block |= 1 << x
                            if x == v:
                                break
                        blocks.append(block)
            elif w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append(w)
                frames.append((w, v, _bits(adj[w])))
            elif w != parent:
                low[v] = min(low[v], disc[w])
    return blocks


def _embed_block(adj: dict[int, int]) -> list[list[int]] | None:
    """The faces of a plane embedding of the biconnected graph adj (at
    least three vertices), each a vertex cycle and all walked the same way
    round, or None if it is not planar."""
    faces = [_cycle(adj)]
    faces.append(faces[0][::-1])
    placed = sum(1 << v for v in faces[0])
    masks = [placed, placed]
    drawn = {v: 0 for v in adj}
    for i, v in enumerate(faces[0]):
        u = faces[0][i - 1]
        drawn[v] |= 1 << u
        drawn[u] |= 1 << v
    outside = sum(1 << v for v in adj) & ~placed
    while True:
        # (attachment mask, chord ends or component mask)
        fragments: list[tuple[int, list[int] | int]] = [
            (1 << v | 1 << u, [v, u])
            for v in _bits(placed)
            for u in _bits(adj[v] & placed & ~drawn[v] & ~((1 << v) - 1))
        ]
        rest = outside
        while rest:
            comp = _closure(adj, rest & -rest, rest)
            rest &= ~comp
            attach = 0
            for x in _bits(comp):
                attach |= adj[x]
            fragments.append((attach & placed, comp))
        if not fragments:
            return faces
        chosen = None
        for attach, part in fragments:
            fits = [i for i, mask in enumerate(masks) if not attach & ~mask]
            if not fits:
                return None
            if chosen is None or len(fits) == 1:
                chosen = fits[0], attach, part
                if len(fits) == 1:
                    break
        index, attach, part = chosen
        path = part if isinstance(part, list) else _path_through(adj, part, attach)
        face = faces[index]
        k = face.index(path[0])
        face = face[k:] + face[:k]
        k = face.index(path[-1])
        faces[index] = face[: k + 1] + path[-2:0:-1]
        faces.append(face[k:] + path[:-1])
        masks[index] = sum(1 << v for v in faces[index])
        masks.append(sum(1 << v for v in faces[-1]))
        for a, b in zip(path, path[1:]):
            drawn[a] |= 1 << b
            drawn[b] |= 1 << a
        inner = sum(1 << v for v in path[1:-1])
        placed |= inner
        outside &= ~inner


def _cycle(adj: dict[int, int]) -> list[int]:
    """A cycle through the lowest-id vertex of the biconnected graph adj:
    a shortest path from its lowest neighbor back to it that avoids the
    edge between them."""
    start = next(iter(adj))
    first = (adj[start] & -adj[start]).bit_length() - 1
    parent = {first: -1}
    frontier = [first]
    while start not in parent:
        grown = []
        for x in frontier:
            for y in _bits(adj[x]):
                if y not in parent and not (x == first and y == start):
                    parent[y] = x
                    grown.append(y)
        frontier = grown
    cycle = []
    v = start
    while v >= 0:
        cycle.append(v)
        v = parent[v]
    return cycle


def _path_through(adj: dict[int, int], comp: int, attach: int) -> list[int]:
    """A path between two distinct attachments whose inner vertices lie in
    the component comp: from the lowest attachment a into comp, then a
    shortest path inside comp to a vertex next to another attachment."""
    a = (attach & -attach).bit_length() - 1
    entry = adj[a] & comp
    start = (entry & -entry).bit_length() - 1
    others = attach & ~(1 << a)
    parent = {start: -1}
    frontier = [start]
    while True:
        for x in frontier:
            if adj[x] & others:
                hit = adj[x] & others
                path = [(hit & -hit).bit_length() - 1]
                while x >= 0:
                    path.append(x)
                    x = parent[x]
                path.append(a)
                return path[::-1]
        grown = []
        for x in frontier:
            for y in _bits(adj[x] & comp):
                if y not in parent:
                    parent[y] = x
                    grown.append(y)
        frontier = grown
