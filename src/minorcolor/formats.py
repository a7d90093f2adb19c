"""Reading and writing graphs.

Two text formats are understood:

* edge list: a header line ``n m`` followed by exactly m lines ``u v``
  with 0-based vertex ids; an edge given twice is an error.  This is the
  canonical output format; writers emit edges ascending as (u, v), u < v.
* DIMACS ``.col``: ``c`` comment lines, one ``p edge n m`` line, then
  exactly m ``e u v`` lines with 1-based ids.  Accepted on read and
  converted; an edge given twice (in either order) counts towards m but
  is kept once.

One loop reads both, and they differ only where it sorts a content line
into header or edge: a DIMACS line names its kind, an edge list's first
content line is its header.  Numbers are plain ASCII decimal, ``-`` allowed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import ParseError
from .graph import Graph

# (dimacs, header) -> message for a line of the wrong shape, then for one
# whose numbers are not plain decimal; {!r} is the stripped line
_MALFORMED = {
    (False, True): ("expected header 'n m'", "expected integer header 'n m'"),
    (False, False): ("expected edge 'u v', got {!r}", "non-integer edge endpoints {!r}"),
    (True, True): ("malformed problem line {!r}",) * 2,
    (True, False): ("malformed edge line {!r}",) * 2,
}


def _read(text: str, dimacs: bool | None) -> Graph:
    """The one reader; with dimacs None the first content line decides."""
    n = m = None
    given = 0
    # int() alone would also take 1_0, +0 and non-ASCII digits; a line is
    # checked for them only when the text holds one somewhere
    plain = text.isascii() and "_" not in text and "+" not in text
    for i, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if not fields:
            continue
        if dimacs is None:
            dimacs = fields[0][0] in "cp"
        if not dimacs:
            header, ok = n is None, len(fields) == 2
        elif fields[0][0] == "c":
            continue
        elif fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=i)
            header, ok = True, len(fields) == 4 and fields[1] in ("edge", "col")
            del fields[:2]
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line=i)
            header, ok = False, len(fields) == 3
            del fields[0]
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line=i)
        try:
            if not ok or not plain and (
                not "".join(fields).isascii() or "_" in raw or "+" in raw
            ):
                raise ValueError
            a, b = int(fields[0]), int(fields[1])
        except ValueError:  # also a number too long for int()
            raise ParseError(_MALFORMED[dimacs, header][ok].format(raw.strip()), line=i) from None
        if header:
            if a < 0 or b < 0:
                raise ParseError("negative counts in header", line=i)
            n, m, lo = a, b, (1 if dimacs else 0)
            adj = dict.fromkeys(range(n), 0)
            continue
        u, v = a - lo, b - lo
        if u == v:
            raise ParseError(f"self-loop at vertex {a}", line=i)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({a}, {b}) outside vertex range {lo}..{n - 1 + lo}", line=i)
        if not adj[u] >> v & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif not dimacs:
            raise ParseError(f"duplicate edge ({a}, {b})", line=i)
        given += 1
    if n is None:
        raise ParseError("missing problem line" if dimacs else "empty input")
    if given != m:
        raise ParseError(f"header promised {m} edges but {given} were given")
    return Graph._from_adj(adj)


def parse_edge_list(text: str) -> Graph:
    return _read(text, dimacs=False)


def parse_dimacs(text: str) -> Graph:
    return _read(text, dimacs=True)


def parse_graph(text: str) -> Graph:
    """Auto-detect the format: DIMACS if the first content line starts with
    'c' or 'p', edge list otherwise."""
    return _read(text, dimacs=None)


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
