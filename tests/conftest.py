import hypothesis.strategies as st
import pytest
from hypothesis import settings

from minorcolor import Graph

settings.register_profile("thorough", max_examples=200)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph(range(10), edges)


@pytest.fixture
def petersen_graph() -> Graph:
    return petersen()


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, flags) if keep]
    return Graph(range(n), edges)


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r*cols + c in row r, column c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(range(rows * cols), edges)


def is_plane_rotation(adj: dict[int, int], rotation: dict[int, list[int]]) -> bool:
    """Naive check that rotation is a rotation system of a plane embedding
    of the graph adj: each rotation is a permutation of that vertex's
    neighbors, and tracing faces by darts gives V - E + F = 2 in every
    connected component, an isolated vertex counting as one face."""
    nbrs = {v: {u for u in adj if mask >> u & 1} for v, mask in adj.items()}
    if set(rotation) != set(nbrs):
        return False
    if any(sorted(rotation[v]) != sorted(nbrs[v]) for v in nbrs):
        return False
    # label each vertex with the least id of its component
    comp = {v: v for v in nbrs}
    changed = True
    while changed:
        changed = False
        for v in nbrs:
            for u in nbrs[v]:
                if comp[u] < comp[v]:
                    comp[v] = comp[u]
                    changed = True
    euler = {c: 0 for c in comp.values()}
    seen = set()
    for v in nbrs:
        # V - E + F, with E counted half at each end
        euler[comp[v]] += 1 - len(nbrs[v]) / 2 + (not nbrs[v])
        for u in nbrs[v]:
            if (v, u) in seen:
                continue
            euler[comp[v]] += 1
            dart = (v, u)
            while dart not in seen:
                seen.add(dart)
                a, b = dart
                around = rotation[b]
                dart = (b, around[(around.index(a) + 1) % len(around)])
    return all(value == 2 for value in euler.values())
