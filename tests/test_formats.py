import pytest

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
