import hashlib
import json

import pytest

from minorcolor import (
    Graph,
    MinorModel,
    load_graph,
    min_degree_vertex,
    save_graph,
    validate_model,
)
from minorcolor.cli import main
from minorcolor.formats import parse_edge_list
from minorcolor.generators import GenSpec, clique_paste, generate

from conftest import petersen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_table_structured_rows(capsys):
    code, out, _ = run(capsys, "bounds-table", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "minorcolor"
    rows = {r["t"]: r for r in payload["result"]["rows"]}
    assert (rows[9]["delta"], rows[9]["alpha"], rows[9]["chi_bound"]) == (21, 3, 20)
    assert len(rows) == 9


def test_structured_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "bounds-table", "--format", "structured")
    _, second, _ = run(capsys, "bounds-table", "--format", "structured")
    assert first == second


def test_alpha_command(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "21", "--t", "8", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["variants"]["b"] == 3
    assert payload["result"]["best"] == 3


def test_alpha_text_marks_inapplicable_variant(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "10", "--t", "4")
    assert code == 0
    assert "n/a" in out


def test_gen_writes_file_and_sidecar(tmp_path, capsys):
    out_path = str(tmp_path / "tri.el")
    code, out, _ = run(
        capsys, "gen", "--family", "planar_triangulation", "--n", "12",
        "--seed", "4", "--out", out_path,
    )
    assert code == 0
    g = load_graph(out_path)
    assert g.n == 12 and g.m == 30
    meta = json.loads((tmp_path / "tri.el.meta.json").read_text())
    assert meta["spec"]["family"] == "planar_triangulation"
    assert meta["result"]["n"] == 12
    # same spec reproduces the same file
    out2 = str(tmp_path / "tri2.el")
    run(capsys, "gen", "--family", "planar_triangulation", "--n", "12",
        "--seed", "4", "--out", out2)
    assert (tmp_path / "tri.el").read_text() == (tmp_path / "tri2.el").read_text()


def test_check_minor_finds_witness(tmp_path, capsys):
    path = str(tmp_path / "petersen.el")
    save_graph(petersen(), path)
    code, out, _ = run(capsys, "check-minor", "--t", "5", path, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["found"] is True
    witness = MinorModel(tuple(frozenset(s) for s in payload["result"]["witness"]))
    assert validate_model(petersen(), witness)


def test_check_minor_negative(tmp_path, capsys):
    path = str(tmp_path / "petersen.el")
    save_graph(petersen(), path)
    code, out, _ = run(capsys, "check-minor", "--t", "6", path)
    assert code == 0
    assert "none" in out


def test_check_minor_reads_dimacs(tmp_path, capsys):
    path = tmp_path / "k4.col"
    path.write_text("c tiny\np edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    code, out, _ = run(capsys, "check-minor", "--t", "4", str(path))
    assert code == 0
    assert "FOUND" in out
    assert "set_0: 0" in out  # witness lines in the text report


def test_color_success_exit_zero(tmp_path, capsys):
    path = str(tmp_path / "tri.el")
    save_graph(generate(GenSpec("planar_triangulation", n=14, seed=2)), path)
    code, out, _ = run(capsys, "color", "--t", "4", path, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["proper"] is True
    assert payload["result"]["colors_used"] <= 5
    assert payload["result"]["palette_bound"] == 5
    assert payload["config"]["delta"] == 5 and payload["config"]["alpha"] == 2


def test_color_structured_output_is_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "tri.el")
    save_graph(generate(GenSpec("planar_triangulation", n=12, seed=5)), path)
    _, first, _ = run(capsys, "color", "--t", "4", path, "--format", "structured")
    _, second, _ = run(capsys, "color", "--t", "4", path, "--format", "structured")
    assert first == second
    assert json.loads(first)["input_sha256"]


def test_color_audit_flag(tmp_path, capsys):
    path = str(tmp_path / "tri.el")
    save_graph(generate(GenSpec("planar_triangulation", n=10, seed=1)), path)
    code, _, _ = run(capsys, "color", "--t", "4", "--audit", path)
    assert code == 0


def test_color_audit_failure_exit_eight(tmp_path, capsys):
    path = str(tmp_path / "k8.el")
    save_graph(Graph.complete(8), path)
    code, out, _ = run(
        capsys, "color", "--t", "6", "--delta", "9", "--alpha", "2", "--audit", path,
        "--format", "structured",
    )
    assert code == 8
    result = json.loads(out)["result"]
    assert result["error"] == "minor_audit_failed"
    model = MinorModel(tuple(frozenset(s) for s in result["witness"]))
    assert model.order == 6
    assert validate_model(parse_edge_list(result["witness_edge_list"]), model)


# sha256 of the whole structured stdout: any change to a trace, a coloring
# or the envelope of these runs shows up here.
@pytest.mark.parametrize(
    "name, build, t, digest",
    [
        (
            "tri60.el",
            lambda: generate(GenSpec("planar_triangulation", n=60, seed=3)),
            "4",
            "4b6e3d7a60d36cb392739e4e39f5cdfabae2ed2e581ab107881ab60f207e0bde",
        ),
        (
            "paste3.el",
            lambda: clique_paste(((2, 2, 2, 2, 2),) * 3, 5, 1),
            "7",
            "5b6257789b120da253437d51fdb3715805ba28b882fcba0dcb03843ad2ee9b42",
        ),
        (
            "isolated.el",
            lambda: Graph(range(9), [(0, 1), (0, 2), (1, 2), (2, 3), (5, 6)]),
            "4",
            "21dd3531c465fea3573cf3efdcacccef85f8706ee0629919304ee22add5068a2",
        ),
    ],
)
def test_color_structured_output_golden(
    tmp_path, monkeypatch, capsys, name, build, t, digest
):
    monkeypatch.chdir(tmp_path)  # the envelope echoes the input path
    save_graph(build(), name)
    code, out, _ = run(capsys, "color", "--t", t, name, "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_color_with_explicit_overrides(tmp_path, capsys):
    path = str(tmp_path / "sp.el")
    save_graph(generate(GenSpec("series_parallel", n=12, seed=2)), path)
    code, out, _ = run(capsys, "color", "--t", "5", "--delta", "7", "--alpha", "2", path)
    assert code == 0
    assert "palette bound 7" in out


def test_color_partial_override_rejected(tmp_path, capsys):
    path = str(tmp_path / "sp.el")
    save_graph(generate(GenSpec("series_parallel", n=12, seed=2)), path)
    code, _, err = run(capsys, "color", "--t", "5", "--delta", "7", path)
    assert code == 3
    assert "together" in err


def test_color_override_conflicts_with_conjectured_mode(tmp_path, capsys):
    path = str(tmp_path / "sp.el")
    save_graph(generate(GenSpec("series_parallel", n=12, seed=2)), path)
    code, _, err = run(
        capsys, "color", "--t", "6", "--mode", "conjectured",
        "--delta", "7", "--alpha", "2", path,
    )
    assert code == 3
    assert "conflict" in err


def test_color_min_degree_violation_exit_five(tmp_path, capsys):
    path = str(tmp_path / "k10.el")
    save_graph(Graph.complete(10), path)
    code, out, _ = run(capsys, "color", "--t", "6", "--mode", "conjectured", path)
    assert code == 5
    assert "witness graph:" in out
    assert "10 45" in out  # witness printed as an edge list


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_color_min_degree_violation_names_vertex_in_witness_ids(tmp_path, capsys, fmt):
    # the path is contracted away first, so the K10 left over keeps ids
    # 5..14 while the printed witness is densified to 0..9
    edges = [(i, i + 1) for i in range(4)]
    edges += [(u, v) for u in range(5, 15) for v in range(u + 1, 15)]
    path = str(tmp_path / "path_k10.el")
    save_graph(Graph(range(15), edges), path)
    code, out, _ = run(
        capsys, "color", "--t", "6", "--mode", "conjectured", path, "--format", fmt
    )
    assert code == 5
    if fmt == "structured":
        result = json.loads(out)["result"]
        vertex, degree = result["vertex"], result["degree"]
        witness = parse_edge_list(result["witness_edge_list"])
    else:
        head, _, listing = out.partition("witness graph:\n")
        words = head.split()
        vertex = int(words[words.index("vertex") + 1])
        degree = int(words[words.index("degree") + 1])
        witness = parse_edge_list(listing)
    assert witness.has_vertex(vertex)
    assert witness.degree(vertex) == degree == 9
    # the descent picks min degree, then the smallest id, and densifying
    # keeps the id order, so the same pick must come out of the witness
    assert min_degree_vertex(witness) == (vertex, degree)


def test_color_independence_shortfall_exit_six(tmp_path, capsys):
    path = str(tmp_path / "k4.el")
    save_graph(Graph.complete(4), path)
    code, out, _ = run(
        capsys, "color", "--t", "3", "--delta", "3", "--alpha", "3", path
    )
    assert code == 6
    assert "witness neighborhood graph:" in out


def test_parse_error_exit_three(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("3 1\n0 nope\n")
    code, _, err = run(capsys, "check-minor", "--t", "3", str(path))
    assert code == 3
    assert "line 2" in err


def test_resource_limit_exit_four(tmp_path, capsys):
    path = str(tmp_path / "big.el")
    save_graph(generate(GenSpec("forest", n=50, seed=1)), path)
    code, _, err = run(capsys, "check-minor", "--t", "3", str(path))
    assert code == 4
    assert "cap" in err


def test_oracle_cap_env_override(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "big.el")
    save_graph(generate(GenSpec("forest", n=50, seed=1)), path)
    monkeypatch.setenv("MINORCOLOR_ORACLE_CAP", "60")
    code, out, _ = run(capsys, "check-minor", "--t", "3", path)
    assert code == 0
    assert "none" in out


def test_search_mindegree_corpus_t7(capsys):
    code, out, _ = run(
        capsys, "search-mindegree", "--t", "7", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    entries = {e["name"]: e for e in payload["result"]["entries"] if "name" in e}
    block = entries["K_{2,2,2,2,2}"]
    assert block["min_degree"] == 8
    assert block["certified_minor_free"] is True
    assert block["status"] == "tight"
    assert payload["result"]["conjecture_holds_on_inputs"] is True


def test_search_mindegree_random_mode(capsys):
    code, out, _ = run(
        capsys, "search-mindegree", "--t", "6", "--mode", "random",
        "--samples", "5", "--n-min", "7", "--n-max", "9",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    summary = [e for e in payload["result"]["entries"] if e.get("status") == "summary"]
    assert summary and summary[0]["samples"] == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
