import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import minorcolor
from minorcolor import (
    Graph,
    MinorModel,
    load_graph,
    min_degree_vertex,
    save_graph,
    validate_model,
)
from minorcolor import bounds
from minorcolor.cli import _render, main
from minorcolor.formats import parse_edge_list
from minorcolor.generators import GenSpec, clique_paste, complete_multipartite, generate

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


def test_gen_complete_multipartite(tmp_path, capsys):
    out_path = tmp_path / "k22222.el"
    code, out, _ = run(
        capsys, "gen", "--family", "complete_multipartite", "--parts", "2,2,2,2,2",
        "--out", str(out_path),
    )
    assert code == 0
    assert "n=10, m=40" in out
    assert load_graph(out_path) == complete_multipartite((2, 2, 2, 2, 2))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--family", "complete_multipartite", "--parts", "2,x"),
         "cannot parse part sizes from '2,x'"),
        (("--family", "complete_multipartite", "--parts", ","), "empty part-size list"),
        # accepted until refused here: it wrote an edgeless graph and exited 0
        (("--family", "filtered_random", "--n", "6", "--forbid", "4", "--max-rejects", "-5"),
         "filtered_random needs max_rejects >= 0"),
    ],
    ids=["unparsable-parts", "empty-parts", "negative-max-rejects"],
)
def test_gen_refuses_a_bad_spec_exit_three(tmp_path, capsys, argv, message):
    out_path = tmp_path / "x.el"
    code, out, err = run(capsys, "gen", *argv, "--out", str(out_path))
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not out_path.exists()


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


# text that json must escape: quotes, backslashes, control characters,
# DEL, non-ASCII, line separators and astral characters (surrogate pairs)
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\U0001f600a') | st.characters()
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | _TEXT,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_TEXT, children),
    max_leaves=30,
)


@given(_JSON)
@settings(max_examples=150, deadline=None)
def test_render_writes_the_bytes_of_json_dumps(value):
    assert _render(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [{1: "a", 0: None}, {None: 1}, {True: [], 2.5: {}}, {float("nan"): 0}, [{}, [], ()]],
)
def test_render_writes_keys_that_are_not_str_as_json_does(value):
    assert _render(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, {(1, 2): 0}, {"a": 1, 2: 0}])
def test_render_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        _render(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, sort_keys=True, indent=2)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)


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
        # long descents through hubs of high degree
        (
            "tri2000.el",
            lambda: generate(GenSpec("planar_triangulation", n=2000, seed=7)),
            "4",
            "c77d6930d5ab347a192fbad779f7240d9ab40bda7e8d1844ea3c37504685f659",
        ),
        (
            "paste6x40.el",
            lambda: clique_paste(((1, 2, 2, 2, 2, 2),) * 40, 6, 2),
            "8",
            "a3360a68cc4449ce4b01401bc7e48c4c7914b09a53d1af35e26aa7d02c27d56e",
        ),
        # the families of the color_descent benchmark, at small sizes
        (
            "tri60s11.el",
            lambda: generate(GenSpec("planar_triangulation", n=60, seed=11)),
            "4",
            "48b217c3392586ec4a09dd33c7bf27244658eff8403badc667d37d1897714f4e",
        ),
        (
            "tri120.el",
            lambda: generate(GenSpec("planar_triangulation", n=120, seed=5)),
            "4",
            "84cfe0054f92f3c90bbd99df7582964ab7019b3ce2e405bfa3b8f05c1c262b02",
        ),
        (
            "paste5x4.el",
            lambda: clique_paste(((2, 2, 2, 2, 2),) * 4, 5, 2),
            "7",
            "566e2168602e0c8d8de4e6bfe2777819f5c77ab095648eeb09011969a4ceecf4",
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


def test_color_neighborhood_above_the_mis_cap_exit_four(tmp_path, capsys):
    # every neighborhood of K66 has 65 vertices, one above the exact
    # independent-set search's cap of 64
    path = str(tmp_path / "k66.el")
    save_graph(Graph.complete(66), path)
    code, out, err = run(
        capsys, "color", "--t", "70", "--delta", "70", "--alpha", "2", path
    )
    assert (code, out) == (4, "")
    assert err == "error: independent-set search: instance size 65 exceeds cap 64\n"


def test_cap_flag_raises_the_cap(tmp_path, capsys):
    path = str(tmp_path / "big.el")
    save_graph(generate(GenSpec("forest", n=50, seed=1)), path)
    code, out, _ = run(capsys, "check-minor", "--t", "3", "--cap", "60", path)
    assert code == 0
    assert "none" in out


def test_cap_flag(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "six.el")
    save_graph(Graph.cycle(6), path)
    code, _, err = run(capsys, "check-minor", "--t", "3", "--cap", "5", path)
    assert code == 4
    assert "cap" in err
    code, out, _ = run(capsys, "check-minor", "--t", "3", "--cap", "6", path)
    assert code == 0
    assert "FOUND" in out
    # a bad cap is a usage error
    for bad in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["check-minor", "--t", "3", "--cap", bad, path])
        assert exc.value.code == 2
        assert f"argument --cap: invalid cap {bad!r}" in capsys.readouterr().err
    # --cap is the only source of the cap: the variable that once set it
    # changes nothing, valid or not
    for value in ("5", "abc"):
        monkeypatch.setenv("MINORCOLOR_ORACLE_CAP", value)
        code, out, err = run(capsys, "check-minor", "--t", "3", path, "--format", "structured")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["cap"] == 40


def test_color_audit_runs_under_the_cap(tmp_path, capsys):
    # the first neighborhood the audit searches has 3 vertices
    path = str(tmp_path / "tri.el")
    save_graph(generate(GenSpec("planar_triangulation", n=12, seed=1)), path)
    code, out, err = run(capsys, "color", "--t", "4", "--audit", "--cap", "2", path)
    assert (code, out) == (4, "")
    assert err == "error: clique-minor search: instance size 3 exceeds cap 2\n"


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


# Golden sha256 of what argparse prints, with the exit code, for usage
# errors and --version, at a fixed terminal width.  The parser is built
# once per process, so these pin that reusing it prints what a fresh one
# did.
USAGE_CASES = [
    ("no-command", (), 2, "err",
     "80fb0ff3222bd7bf6fa4edd5b017aae2d5508aada7a6956ba44ec986a6befc77"),
    ("color-missing-args", ("color",), 2, "err",
     "ee4e72a61602ee8c4177230e281bb589a6b3688a9a038fe31941c6cf9fccd071"),
    ("color-bad-t", ("color", "g.el", "--t", "x"), 2, "err",
     "13da0231b438a30c4086fadb414695408ca9f2270866c597d5f9a3eb91d0b788"),
    ("check-minor-negative-cap", ("check-minor", "g.el", "--t", "5", "--cap", "-1"), 2, "err",
     "8e5466b662fe49c38346c93c7442224a2319305daf65920dfc726d8a37772f5e"),
    ("unknown-command", ("bogus",), 2, "err",
     "8259511273259782c1f7de5a264fe9f2faafaad36597c870f44b603df623ad0e"),
    ("version", ("--version",), 0, "out",
     "496f542d05c58d18b65202fb9229815680f16b5758b8ae65e5cd61e5ea21bdd9"),
]


@pytest.mark.parametrize(
    "argv, code, stream, digest",
    [case[1:] for case in USAGE_CASES],
    ids=[case[0] for case in USAGE_CASES],
)
def test_usage_error_golden(monkeypatch, capsys, argv, code, stream, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code
    captured = capsys.readouterr()
    printed, other = (captured.err, captured.out) if stream == "err" else (captured.out, captured.err)
    assert other == ""
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


def test_calls_in_one_process_share_no_state(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_graph(Graph.cycle(5), "five.el")
    save_graph(generate(GenSpec("planar_triangulation", n=10, seed=1)), "tri.el")

    def config(*argv):
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0
        return json.loads(out)["config"]

    # an option given once does not stick to the parser
    assert config("check-minor", "--t", "3", "--cap", "5", "five.el")["cap"] == 5
    assert config("check-minor", "--t", "3", "five.el")["cap"] == 40
    assert config("color", "--t", "4", "--audit", "tri.el")["audit"] is True
    assert config("color", "--t", "4", "tri.el")["audit"] is False
    # the terminal width is read on every call that prints a usage error
    widths = []
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["color"])
        widths.append(max(len(line) for line in capsys.readouterr().err.splitlines()[:-1]))
    assert widths[0] <= 80 < widths[1]
    # a usage error leaves nothing behind for the next call
    code, out, _ = run(capsys, "check-minor", "--t", "3", "five.el")
    assert code == 0
    assert "FOUND" in out


# Golden sha256 of stdout plus the exit code for one invocation of every
# subcommand, both formats, and every finding exit code of `color`. The
# inputs are written into the working directory, so the echoed paths are
# relative and the digests do not depend on where the suite runs.
GOLDEN_INPUTS = {
    "tri14.el": lambda: generate(GenSpec("planar_triangulation", n=14, seed=2)),
    "k4.el": lambda: Graph.complete(4),
    "k8.el": lambda: Graph.complete(8),
    "k10.el": lambda: Graph.complete(10),
    "petersen.el": petersen,
}

GOLDEN_CASES = [
    (
        "color-text",
        ("color", "--t", "4", "tri14.el"),
        0,
        "13b0bb9cf6c44146a21522a6d505149dc100bbd64f15f830d757bad4accb07f6",
    ),
    (
        "color-min-degree-text",
        ("color", "--t", "6", "--mode", "conjectured", "k10.el"),
        5,
        "3bbe0c8448e1a38ea57a4b5b6f0c4f07033b97ea116132d7f2a5a2522bdcb05d",
    ),
    (
        "color-shortfall-text",
        ("color", "--t", "3", "--delta", "3", "--alpha", "3", "k4.el"),
        6,
        "36b49747306a439e4862644123b3eb96ca0c789333eb19cd40c672e4729f89b0",
    ),
    (
        "color-audit-text",
        ("color", "--t", "6", "--delta", "9", "--alpha", "2", "--audit", "k8.el"),
        8,
        "7caa798f176fe7da3257224bc6847257914b2658b560ecd79e205a2f2e1e5f6d",
    ),
    (
        "color-shortfall-structured",
        ("color", "--t", "3", "--delta", "3", "--alpha", "3", "k4.el",
         "--format", "structured"),
        6,
        "25bb072b359493bf562ed992e2feac13416c805d61857472c50311ea4ed6c714",
    ),
    (
        "check-minor-found-text",
        ("check-minor", "--t", "5", "petersen.el"),
        0,
        "99372b698b50928805a00f626ab550740c33e49fa3cd7897ca6a59f03eb9d73d",
    ),
    (
        "check-minor-none-text",
        ("check-minor", "--t", "6", "petersen.el"),
        0,
        "b047b6230ce1ad5728a92ad49e338b9d57bfe3dbba5d99d0bff54854353ddfc8",
    ),
    (
        "check-minor-found-structured",
        ("check-minor", "--t", "5", "petersen.el", "--format", "structured"),
        0,
        "6a410f75e6bc06a0e0bc1d0611b3ff867382e456788263bc0e787504d99386f2",
    ),
    (
        "check-minor-none-structured",
        ("check-minor", "--t", "6", "petersen.el", "--format", "structured"),
        0,
        "d2867c790748a8f0e198adb9a5e5ff9dd149a8612bae9772faeb9fc3422f3eb2",
    ),
    (
        "alpha-text",
        ("alpha", "--n", "10", "--t", "4"),
        0,
        "915ce015e7dd24e1ccbaf6dcc650bdb28b1dfaad60064642749535a7f058f2ac",
    ),
    (
        "alpha-structured",
        ("alpha", "--n", "10", "--t", "4", "--format", "structured"),
        0,
        "b29f983d8493ca865e5e1f99538d399ced25356a6d4b31b4527f1413339e9f74",
    ),
    (
        "bounds-table-conjectured-text",
        ("bounds-table", "--conjectured"),
        0,
        "303bfdbcfd5f81192395c2899bf40263c02383258b574c65a906b40c5824edfa",
    ),
    (
        "bounds-table-structured",
        ("bounds-table", "--format", "structured"),
        0,
        "6e070744ebf1e9ca36a823483acb1521081d9529e1e98ad1e12aefd8383aa911",
    ),
    (
        "gen-text",
        ("gen", "--family", "planar_triangulation", "--n", "12", "--seed", "4",
         "--out", "tri.el"),
        0,
        "7f239d212137e40428b09ece8c253278ce2fd5fecb6a829dd3198b9cd7fe4f6e",
    ),
    (
        "gen-paste-structured",
        ("gen", "--family", "clique_paste", "--blocks", "2,2,2;1,2,2",
         "--clique-size", "3", "--seed", "1", "--out", "paste.el",
         "--format", "structured"),
        0,
        "7169f01e58df5e3e1e5f6df6e48127387961d3df160b3b3a6d2bd8ec88bdd8f5",
    ),
    (
        # the echoed spec carries --max-rejects and leaves out --cap
        "gen-filtered-max-rejects-structured",
        ("gen", "--family", "filtered_random", "--n", "8", "--forbid", "5",
         "--seed", "2", "--max-rejects", "5", "--cap", "12", "--out", "fr.el",
         "--format", "structured"),
        0,
        "4b740584f8cef7493643503c4c2c8c61a4ebbc18345748db41db82059033029a",
    ),
    (
        "search-mindegree-text",
        ("search-mindegree", "--t", "7"),
        0,
        "01e07958208c9b60f4b696c272f7df96c768678155f3a76149acf61c98f04b78",
    ),
    (
        "search-mindegree-structured",
        ("search-mindegree", "--t", "7", "--format", "structured"),
        0,
        "23627c64670b01adbc83780612e75c1689d6e9f84ebde301ea5658445d7f4376",
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest",
    [case[1:] for case in GOLDEN_CASES],
    ids=[case[0] for case in GOLDEN_CASES],
)
def test_cli_stdout_golden(tmp_path, monkeypatch, capsys, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    for name, build in GOLDEN_INPUTS.items():
        save_graph(build(), name)
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Golden sha256 of stdout plus the exit code of the minimum-degree probe in
# both modes and both formats.  The real conjectured rows have no
# counterexample on these inputs, so the last three lower the row (a
# construction-certified paste among them) to reach the counterexample
# report and exit 7.
PROBE_RANDOM = ("--mode", "random", "--samples", "6", "--n-min", "7", "--n-max", "9")

PROBE_CASES = [
    ("t6", ("--t", "6"), {}, 0, (
        "620bf206a7bc21254a5e2335fcb13baaad3fee8ae750acdb2d96ae0a5a57df5c",
        "02c371d80d6c982d0ab40bd678153f3b872dbc06c18fd605367a1dd131b0869d",
    )),
    ("t8", ("--t", "8"), {}, 0, (
        "48c3298f7e256a31cf431201b84d753ac772951ed590f34d599212b1b08f057c",
        "fd2eaa5c9f9f044624064c50ee5c45e92ab1a928b3c321fafc3dc1983e2020cb",
    )),
    ("t6-random", ("--t", "6", *PROBE_RANDOM), {}, 0, (
        "e55f9d281bf1406ddb3152e38ad8483a8353ad58035bbfc8efc3498e1c88575c",
        "258b634227d38a213dea4ca91aa8ffb09b78e71615b922cc084b32ae304e9c69",
    )),
    ("t6-forced", ("--t", "6"), {6: 2}, 7, (
        "2816bdca07376dd62b82ce58e9f860da439369522505bb2f0504355d45e12d02",
        "d3d818fd81be9a0bfc030e11c87ca37f50d6188bb98e4e8d97e88fa39596102f",
    )),
    ("t7-forced", ("--t", "7"), {7: 3}, 7, (
        "fb4c3b05092186a5297068902e7d316f30aaef494cafa943690d7ba73a0527cd",
        "de5408d933cb7ea4b84c890dfe4923cad71d2ad138da2f431638aa46c80f3e06",
    )),
    ("t6-random-forced", ("--t", "6", *PROBE_RANDOM), {6: 3}, 7, (
        "c65bdeaad387f47633f3fcfcfef76051e0de05c421aa1e6183c79b4265110686",
        "36dc9b2c66a9b2292890d93594e6656cd9f39dce968960230fc29c24e56a42a2",
    )),
]


@pytest.mark.parametrize(
    "argv, forced, code, digest",
    [
        (case[1] + ("--format", fmt), case[2], case[3], digest)
        for case in PROBE_CASES
        for fmt, digest in zip(("text", "structured"), case[4])
    ],
    ids=[f"{case[0]}-{fmt}" for case in PROBE_CASES for fmt in ("text", "structured")],
)
def test_search_mindegree_golden(monkeypatch, capsys, argv, forced, code, digest):
    for t, delta in forced.items():
        monkeypatch.setitem(bounds.CONJECTURED_DELTA, t, delta)
    got_code, out, _ = run(capsys, "search-mindegree", *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_search_mindegree_rejects_samples_below_one(capsys, samples):
    code, out, err = run(
        capsys, "search-mindegree", "--t", "6", "--mode", "random", "--samples", samples
    )
    assert code == 3
    assert out == ""
    assert "samples" in err


def test_search_mindegree_rejects_n_min_above_n_max(capsys):
    code, out, err = run(
        capsys, "search-mindegree", "--t", "6", "--mode", "random", "--n-min", "9", "--n-max", "8"
    )
    assert (code, out, err) == (3, "", "error: need 1 <= n-min <= n-max\n")


def test_input_sha256_is_the_digest_of_the_bytes_parsed(tmp_path):
    # a pipe can be read only once, so a second read for the hash sees nothing
    path = tmp_path / "petersen.el"
    save_graph(petersen(), path)
    env = dict(os.environ, PYTHONPATH=str(Path(minorcolor.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "minorcolor.cli", "check-minor", "--t", "3",
         "--format", "structured", "/dev/stdin"],
        input=path.read_bytes(), capture_output=True, env=env, check=True,
    )
    payload = json.loads(proc.stdout)
    assert payload["result"]["found"] is True
    assert payload["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_to_a_pipe_hashes_the_bytes_written_and_skips_the_sidecar(tmp_path):
    # reading --out back to hash it would wait forever on the pipe
    fifo = tmp_path / "graph.pipe"
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
    reader.start()
    env = dict(os.environ, PYTHONPATH=str(Path(minorcolor.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "minorcolor.cli", "gen", "--family", "forest",
             "--n", "5", "--out", str(fifo), "--format", "structured"],
            capture_output=True, env=env, timeout=20,
        )
    finally:
        if reader.is_alive():  # the writer never came: let the reader see EOF
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=5)
    assert not reader.is_alive()
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["config"]["meta"] is None
    assert payload["result"]["result"]["sha256"] == hashlib.sha256(drained[0]).hexdigest()
    assert parse_edge_list(drained[0].decode()).n == 5
    assert not (tmp_path / "graph.pipe.meta.json").exists()


def test_gen_refuses_an_out_that_is_its_own_stdout(tmp_path):
    # `gen --out F > F` would leave F holding the report, not the graph
    target = tmp_path / "graph.el"
    env = dict(os.environ, PYTHONPATH=str(Path(minorcolor.__file__).parents[1]))
    with open(target, "w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "minorcolor.cli", "gen", "--family", "forest",
             "--n", "6", "--out", str(target)],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=20,
        )
    assert proc.returncode == 3
    assert proc.stderr.decode().startswith("error: ")
    assert target.read_bytes() == b""
    assert not (tmp_path / "graph.el.meta.json").exists()


def test_gen_writes_to_dev_null_when_stdout_is_dev_null():
    # both ends are one device, not a file that opening would truncate
    env = dict(os.environ, PYTHONPATH=str(Path(minorcolor.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "minorcolor.cli", "gen", "--family", "forest",
         "--n", "6", "--out", os.devnull],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("color", "--t", "4", "nope.el"),
        ("check-minor", "--t", "3", "a_directory"),
        ("gen", "--family", "forest", "--n", "5", "--out", "missing_dir/x.el"),
    ],
    ids=["missing-input", "directory-input", "missing-output-dir"],
)
def test_unreadable_path_exit_three(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_dimacs_edge_count_mismatch_exit_three(tmp_path, capsys):
    path = tmp_path / "short.col"
    path.write_text("p edge 4 6\ne 1 2\ne 1 3\n")
    code, out, err = run(capsys, "check-minor", "--t", "3", str(path))
    assert code == 3
    assert out == ""
    assert "header promised 6 edges but 2 were given" in err
