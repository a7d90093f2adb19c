import pytest
from hypothesis import given, settings

from conftest import graphs
from minorcolor import Graph, ParseError, load_graph, parse_graph, save_graph, write_edge_list
from minorcolor.formats import parse_dimacs, parse_edge_list


def test_edge_list_round_trip(tmp_path):
    g = Graph(range(5), [(0, 1), (1, 2), (3, 4)])
    path = tmp_path / "g.el"
    save_graph(g, path)
    back = load_graph(path)
    assert back == g


def test_edge_list_written_sorted():
    g = Graph(range(4), [(2, 1), (3, 0), (1, 0)])
    assert write_edge_list(g) == "4 3\n0 1\n0 3\n1 2\n"


def test_writer_densifies_ids():
    g = Graph([0, 3, 7], [(0, 3), (3, 7)])
    assert write_edge_list(g) == "3 2\n0 1\n1 2\n"


def test_edge_list_header_mismatch():
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1\n")


def test_edge_list_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1\n0 x\n")
    assert err.value.line == 3


def test_edge_list_rejects_self_loop():
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n1 1\n")


def test_edge_list_rejects_out_of_range():
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 3\n")


def test_dimacs_accepted_and_converted():
    text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_dimacs_autodetected():
    g = parse_graph("p edge 3 1\ne 1 3\n")
    assert g.edges() == [(0, 2)]
    g2 = parse_graph("3 1\n0 2\n")
    assert g == g2


def test_dimacs_duplicate_edges_tolerated():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")
    assert g.m == 1


def test_dimacs_needs_problem_line():
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_graph("   \n\n")


def test_dimacs_rejects_non_integer_edge_count():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p edge 3 x\ne 1 2\n")
    assert err.value.line == 1


@pytest.mark.parametrize("count", ["1", "3"])
def test_dimacs_rejects_edge_count_mismatch(count):
    with pytest.raises(ParseError, match=f"header promised {count} edges but 2 were given"):
        parse_dimacs(f"p edge 3 {count}\ne 1 2\ne 2 3\n")


@pytest.mark.parametrize("header", ["p edge -3 0", "p edge 3 -1"])
def test_dimacs_rejects_negative_counts(header):
    with pytest.raises(ParseError, match="negative counts in header") as err:
        parse_dimacs(f"c first line\n{header}\n")
    assert err.value.line == 2


# One malformed input per error branch of each reader, with the line
# number and message the reader gives.  Recorded on the separate edge-list
# and DIMACS readers that the one reader replaced; since then the DIMACS
# out-of-range message names the id pair, as the edge-list one did, and
# numbers that int() takes but are not plain decimal (1_0, +0, ２) fail.
PARSE_ERRORS = [
    (parse_edge_list, " \n\n", None, "empty input"),
    (parse_edge_list, "3\n0 1\n", 1, "expected header 'n m'"),
    (parse_edge_list, "3 x\n", 1, "expected integer header 'n m'"),
    (parse_edge_list, "\n-1 0\n", 2, "negative counts in header"),
    (parse_edge_list, "3 1\n0 1 2\n", 2, "expected edge 'u v', got '0 1 2'"),
    (parse_edge_list, "3 2\n0 1\n0 x\n", 3, "non-integer edge endpoints '0 x'"),
    (parse_edge_list, "3 1\n1 1\n", 2, "self-loop at vertex 1"),
    (parse_edge_list, "3 1\n0 3\n", 2, "edge (0, 3) outside vertex range 0..2"),
    (parse_edge_list, "3 1\n-1 2\n", 2, "edge (-1, 2) outside vertex range 0..2"),
    (parse_edge_list, "3 2\n0 1\n\n1 0\n", 4, "duplicate edge (1, 0)"),
    (parse_edge_list, "3 2\n0 1\n", None, "header promised 2 edges but 1 were given"),
    (parse_edge_list, "12 1\n1_0 2\n", 2, "non-integer edge endpoints '1_0 2'"),
    (parse_edge_list, "3 1\n+0 ２\n", 2, "non-integer edge endpoints '+0 ２'"),
    (parse_edge_list, "1_2 0\n", 1, "expected integer header 'n m'"),
    (parse_dimacs, "p edge 3 0\nc x\np edge 3 0\n", 3, "duplicate problem line"),
    (parse_dimacs, "p edge 3\n", 1, "malformed problem line 'p edge 3'"),
    (parse_dimacs, "c\np graph 3 0\n", 2, "malformed problem line 'p graph 3 0'"),
    (parse_dimacs, "p edge 3 x\n", 1, "malformed problem line 'p edge 3 x'"),
    (parse_dimacs, "p edge +3 0\n", 1, "malformed problem line 'p edge +3 0'"),
    (parse_dimacs, "p col 3 -1\n", 1, "negative counts in header"),
    (parse_dimacs, "c x\ne 1 2\n", 2, "edge line before problem line"),
    (parse_dimacs, "p edge 3 1\ne 1\n", 2, "malformed edge line 'e 1'"),
    (parse_dimacs, "p edge 3 1\ne 1 x\n", 2, "malformed edge line 'e 1 x'"),
    (parse_dimacs, "p edge 12 1\ne 1_1 2\n", 2, "malformed edge line 'e 1_1 2'"),
    (parse_dimacs, "p edge 3 1\ne 2 2\n", 2, "self-loop at vertex 2"),
    (parse_dimacs, "p edge 3 1\ne 1 4\n", 2, "edge (1, 4) outside vertex range 1..3"),
    (parse_dimacs, "p edge 3 1\ne 0 1\n", 2, "edge (0, 1) outside vertex range 1..3"),
    (parse_dimacs, "p edge 3 0\nx 1 2\n", 2, "unrecognized line 'x 1 2'"),
    (parse_dimacs, "c only\n\n", None, "missing problem line"),
    (parse_dimacs, "", None, "missing problem line"),
    (parse_dimacs, "p edge 3 1\ne 1 2\ne 2 1\ne 1 3\n", None,
     "header promised 1 edges but 3 were given"),
]


@pytest.mark.parametrize(("reader", "text", "line", "message"), PARSE_ERRORS)
def test_parse_error_table(reader, text, line, message):
    for parse in (reader, parse_graph):
        with pytest.raises(ParseError) as err:
            parse(text)
        # parse_graph reads an input without content as an empty edge list
        expected = "empty input" if parse is parse_graph and not text.strip() else message
        assert (err.value.line, str(err.value)) == (
            line, expected if line is None else f"line {line}: {expected}"
        )


# Inputs that parse, with the edges each reader gives.  The first holds
# what a number may not (non-ASCII, _ and +), but only in a comment.
PARSES = [
    (parse_dimacs, "c größe_1+2 ２\np edge 3 1\nc +1 1_0\ne 1 3\n", [(0, 2)]),
]


@pytest.mark.parametrize(("reader", "text", "edges"), PARSES)
def test_parse_table(reader, text, edges):
    for parse in (reader, parse_graph):
        assert parse(text).edges() == edges


def _dimacs(g: Graph) -> str:
    """g as DIMACS with its first edge reversed and its last edge repeated."""
    edges = [(u + 1, v + 1) for u, v in g.edges()]
    if edges:
        edges[0] = edges[0][::-1]
        edges.append(edges[-1])
    lines = ["c written by a test", f"p edge {g.n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(graphs(max_n=12))
def test_both_formats_round_trip(g):
    assert parse_graph(write_edge_list(g)) == g
    assert parse_graph(_dimacs(g)) == g
