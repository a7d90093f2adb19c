"""Reading and writing graphs.

Two text formats are understood:

* edge list: a header line ``n m`` followed by exactly m lines ``u v``
  with 0-based vertex ids.  This is the canonical output format; writers
  emit edges ascending as (u, v) with u < v.
* DIMACS ``.col``: ``c`` comment lines, one ``p edge n m`` line, then
  exactly m ``e u v`` lines with 1-based ids.  Accepted on read and
  converted; an edge given twice (in either order) counts towards m but
  is kept once.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import ParseError
from .graph import Graph


def parse_edge_list(text: str) -> Graph:
    lines = text.splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip():
            header_idx = i
            break
    if header_idx is None:
        raise ParseError("empty input")
    parts = lines[header_idx].split()
    if len(parts) != 2:
        raise ParseError("expected header 'n m'", line=header_idx + 1)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("expected integer header 'n m'", line=header_idx + 1) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", line=header_idx + 1)

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i in range(header_idx + 1, len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge 'u v', got {line!r}", line=i + 1)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer edge endpoints {line!r}", line=i + 1) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=i + 1)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}", line=i + 1)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", line=i + 1)
        seen.add(key)
        edges.append(key)
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges but {len(edges)} were given")
    return Graph(range(n), edges, max_vertices=max(64, n))


def parse_dimacs(text: str) -> Graph:
    n = m = None
    given = 0
    edges: set[tuple[int, int]] = set()
    for i, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=i + 1)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed problem line {line!r}", line=i + 1)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", line=i + 1) from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line=i + 1)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", line=i + 1)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", line=i + 1) from None
            if u == v:
                raise ParseError(f"self-loop at vertex {u + 1}", line=i + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge outside vertex range 1..{n}", line=i + 1)
            edges.add((min(u, v), max(u, v)))
            given += 1
        else:
            raise ParseError(f"unrecognized line {line!r}", line=i + 1)
    if n is None:
        raise ParseError("missing problem line")
    if given != m:
        raise ParseError(f"header promised {m} edges but {given} were given")
    return Graph(range(n), sorted(edges), max_vertices=max(64, n))


def parse_graph(text: str) -> Graph:
    """Auto-detect the format: DIMACS if the first content line starts with
    'c' or 'p', edge list otherwise."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in ("c", "p"):
            return parse_dimacs(text)
        return parse_edge_list(text)
    raise ParseError("empty input")


def load_graph(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text())


def dense_ids(g: Graph) -> dict[int, int]:
    """Map each vertex id of g to its id 0..n-1 in write_edge_list output."""
    return {v: i for i, v in enumerate(g.vertices)}


def write_edge_list(g: Graph) -> str:
    """Serialize to the canonical edge-list format.

    Vertex ids are densified (order-preserving) so the output always uses
    0..n-1; graphs built from files or generators are unaffected since
    their ids are already contiguous.
    """
    relabel = dense_ids(g)
    pairs = sorted((relabel[u], relabel[v]) for u, v in g.edges())
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(write_edge_list(g))


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
