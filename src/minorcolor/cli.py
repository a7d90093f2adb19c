"""Command-line interface.

Subcommands: color, check-minor, alpha, bounds-table, gen,
search-mindegree.  Input graphs are edge-list or DIMACS .col files.
Each ``cmd_*`` returns ``(exit_code, config, result, text)`` and prints
nothing; ``main`` prints the one report: the text lines, or with
--format structured a JSON envelope carrying the tool version, the
command, the echoed run configuration, the input file hash and the
result, so identical runs are byte-identical; ``_render`` writes it with
the same bytes as ``json.dumps(..., sort_keys=True, indent=2)``, faster.
``main`` also maps every error to its exit code, with a one-line message
on stderr.  The argument parser is built on the first call of ``main``
and reused for the rest of the process.

Exit codes:
  0  success (including "no minor" / "no counterexample")
  2  command-line usage error
  3  unreadable or invalid input (missing file, directory, malformed graph)
  4  exact search above its size cap
  5  minimum-degree premise violated (witness printed)
  6  independence guarantee violated (witness printed)
  7  search-mindegree found a counterexample
  8  color --audit found the forbidden minor in a neighborhood (witness printed)
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import stat
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

from . import __version__
from .bounds import EXTREMAL_EDGE_BOUNDS, edge_count_forces_minor, full_table, table_row
from .coloring import color_by_contraction
from .errors import (
    IndependenceShortfall,
    MinDegreeExceeded,
    MinorAuditFailed,
    MinorColorError,
    ParseError,
    ResourceLimitExceeded,
)
from .formats import dense_ids, parse_graph, write_edge_list
from .generators import (
    GenSpec,
    certify,
    clique_paste,
    complete_multipartite,
    filtered_random,
    generate,
)
from .graph import Graph, min_degree_vertex
from .indep import applicable_variants, gamma_constant, independence_guarantee
from .minor import DEFAULT_SEARCH_CAP, MinorModel, has_clique_minor

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_MIN_DEGREE = 5
EXIT_SHORTFALL = 6
EXIT_COUNTEREXAMPLE = 7
EXIT_AUDIT = 8

ORACLE_CAP_ENV = "MINORCOLOR_ORACLE_CAP"

# (exit code, echoed configuration, result, text lines) of one command
Report = tuple[int, dict, dict, list[str]]


def _cap(raw: str) -> int:
    """A vertex cap: a non-negative integer."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid cap {raw!r}: not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid cap {raw!r}: negative")
    return value


def _parse_parts(raw: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in raw.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse part sizes from {raw!r}") from None
    if not parts:
        raise ValueError("empty part-size list")
    return parts


def _parse_blocks(raw: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_parts(chunk) for chunk in raw.split(";") if chunk.strip())


def _read_input(path: str) -> tuple[Graph, str]:
    """The graph in the file and the sha256 of the bytes it was parsed
    from; the file is read once, so a pipe such as /dev/stdin works."""
    data = Path(path).read_bytes()
    return parse_graph(data.decode()), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- color


def _finding(exc: MinorColorError, config: dict) -> tuple[int, dict, list[str]]:
    """Exit code, result and text of a premise violation found by color.

    The witness graph is printed as a densified edge list, and the vertex
    ids in the report (the min-degree vertex, the branch sets) are the ids
    of that list.
    """
    tail: list[str] = []
    if isinstance(exc, MinDegreeExceeded):
        code, witness = EXIT_MIN_DEGREE, exc.graph
        vertex = dense_ids(witness)[exc.vertex]
        result = {"error": "min_degree_exceeded", "vertex": vertex, "degree": exc.degree}
        text = [
            f"premise violated: vertex {vertex} has minimum degree "
            f"{exc.degree} > delta={config['delta']}",
            "witness graph:",
        ]
    elif isinstance(exc, IndependenceShortfall):
        code, witness = EXIT_SHORTFALL, exc.subgraph
        result = {"error": "independence_shortfall", "found": exc.found, "required": exc.required}
        text = [
            f"premise violated: neighborhood graph has maximum independent set "
            f"{exc.found} < required {exc.required}",
            "witness neighborhood graph:",
        ]
    else:
        code, witness = EXIT_AUDIT, exc.subgraph
        relabel = dense_ids(witness)
        model = MinorModel(
            tuple(frozenset(relabel[v] for v in s) for s in exc.model.branch_sets)
        )
        result = {"error": "minor_audit_failed", "witness": [sorted(s) for s in model.branch_sets]}
        text = [
            f"premise violated: a neighborhood graph has a K{config['t']} minor",
            "witness neighborhood graph:",
        ]
        tail = ["branch sets:", *model.to_lines()]
    result["witness_edge_list"] = write_edge_list(witness)
    return code, result, [*text, result["witness_edge_list"].rstrip("\n"), *tail]


def cmd_color(args) -> Report:
    if (args.delta is None) != (args.alpha is None):
        raise ValueError("--delta and --alpha must be given together")
    if args.delta is not None and args.mode == "conjectured":
        raise ValueError("--delta/--alpha overrides conflict with --mode conjectured")
    g, digest = _read_input(args.path)
    if args.delta is not None:
        delta, alpha = args.delta, args.alpha
    else:
        row = table_row(args.t, args.mode)
        delta, alpha = row.delta, row.alpha
    config = {
        "input": args.path,
        "input_sha256": digest,
        "t": args.t,
        "mode": args.mode,
        "delta": delta,
        "alpha": alpha,
        "audit": args.audit,
        "cap": args.cap,
    }
    try:
        report = color_by_contraction(
            g, args.t, delta, alpha, audit=args.audit, oracle_cap=config["cap"]
        )
    except (MinDegreeExceeded, IndependenceShortfall, MinorAuditFailed) as exc:
        code, result, text = _finding(exc, config)
        return code, config, result, text

    assignment = sorted(report.coloring.assignment.items())
    result = {
        "n": g.n,
        "m": g.m,
        "colors_used": report.colors_used,
        "palette_bound": report.palette_bound,
        "delta": report.delta_used,
        "alpha": report.alpha_used,
        "proper": report.proper,
        "coloring": {str(v): c for v, c in assignment},
        "trace": {
            "base_size": report.trace.base_size,
            "steps": [
                {
                    "vertex": s.vertex,
                    "degree": s.degree,
                    "independent_set": sorted(s.independent_set),
                    "merged_vertex": s.merged_vertex,
                    "color": s.color,
                }
                for s in report.trace.steps
            ],
        },
    }
    text = [
        f"colored {g.n} vertices / {g.m} edges with {report.colors_used} colors "
        f"(palette bound {report.palette_bound}, delta={delta}, alpha={alpha})",
        f"proper: {report.proper}",
        *(f"{v} {c}" for v, c in assignment),
    ]
    return EXIT_OK, config, result, text


# ---------------------------------------------------------- check-minor


def cmd_check_minor(args) -> Report:
    g, digest = _read_input(args.path)
    config = {
        "input": args.path,
        "input_sha256": digest,
        "t": args.t,
        "cap": args.cap,
    }
    model = has_clique_minor(g, args.t, cap=args.cap)
    forced = (
        edge_count_forces_minor(g, args.t) if args.t in EXTREMAL_EDGE_BOUNDS else None
    )
    result = {
        "found": model is not None,
        "witness": [sorted(s) for s in model.branch_sets] if model else None,
        "edge_count_forces": forced,
    }
    if model is not None:
        text = [f"K{args.t} minor: FOUND", *model.to_lines()]
    else:
        text = [f"K{args.t} minor: none (exact search, n={g.n})"]
    if forced is not None:
        text.append(f"edge count alone forces the minor: {forced}")
    return EXIT_OK, config, result, text


# ------------------------------------------------------------------ alpha


def cmd_alpha(args) -> Report:
    config = {"n": args.n, "t": args.t}
    variants = {}
    for variant in ("a", "b", "c"):
        if variant in applicable_variants(args.t):
            variants[variant] = independence_guarantee(args.n, args.t, variant).alpha
        else:
            variants[variant] = None
    best = max(v for v in variants.values() if v is not None)
    result = {"variants": variants, "best": best, "gamma": gamma_constant()}
    text = [f"independence guarantees for n={args.n}, t={args.t}:"]
    for variant, value in variants.items():
        shown = value if value is not None else "n/a (needs t >= 5)"
        text.append(f"  variant {variant}: {shown}")
    text.append(f"  best: {best}")
    return EXIT_OK, config, result, text


# ----------------------------------------------------------- bounds-table


def cmd_bounds_table(args) -> Report:
    mode = "conjectured" if args.conjectured else "proven"
    rows = full_table(mode)
    result = {"rows": [asdict(r) for r in rows]}
    text = [f"{'t':>3} {'delta':>6} {'alpha':>6} {'chi':>4}  {'edges':<18} {'best known':<10}"]
    for r in rows:
        eb = (
            f"m<={r.edge_bound.coeff}n-{r.edge_bound.const} (n>={r.edge_bound.min_vertices})"
            if r.edge_bound
            else "-"
        )
        bk = str(r.best_known_chi) if r.best_known_chi else "-"
        text.append(
            f"{r.t:>3} {r.delta:>6} {r.alpha:>6} {r.chi_bound:>4}  {eb:<18} {bk:<10}"
        )
    if mode == "conjectured":
        text.append("(minimum-degree values are conjectured, not proven)")
    return EXIT_OK, {"mode": mode}, result, text


# -------------------------------------------------------------------- gen


def cmd_gen(args) -> Report:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        parts=_parse_parts(args.parts) if args.parts else None,
        blocks=_parse_blocks(args.blocks) if args.blocks else None,
        clique_size=args.clique_size,
        forbid=args.forbid,
        max_rejects=args.max_rejects,
    )
    # `gen --out F > F`: opening a regular file F would empty it, and the
    # report printed from offset 0 would then overwrite the edge list; a
    # device such as /dev/null loses nothing
    try:
        shared = os.fstat(sys.stdout.fileno())
        same = stat.S_ISREG(shared.st_mode) and os.path.samestat(os.stat(args.out), shared)
    except OSError:  # --out does not exist yet, or stdout has no descriptor
        same = False
    if same:
        raise ValueError(f"--out {args.out} is the file stdout writes to")
    g = generate(spec, cap=args.cap)
    data = write_edge_list(g).encode()
    # hash the bytes written: reading --out back would block on a pipe
    with open(args.out, "wb") as fh:
        fh.write(data)
    meta = {
        "tool": "minorcolor",
        "version": __version__,
        "spec": asdict(spec),
        "result": {"n": g.n, "m": g.m, "sha256": hashlib.sha256(data).hexdigest()},
    }
    text = [f"wrote {args.out} (family={spec.family}, n={g.n}, m={g.m})"]
    # a pipe or a device has no place beside it for a sidecar
    if os.path.isfile(args.out):
        meta_path = args.out + ".meta.json"
        with open(meta_path, "w") as fh:
            fh.write(_render(meta) + "\n")
        text.append(f"meta: {meta_path}")
    else:
        meta_path = None
        text.append("meta: not written (--out is not a regular file)")
    return EXIT_OK, {"out": args.out, "meta": meta_path}, meta, text


# ------------------------------------------------------- search-mindegree


def _conjecture_corpus(t: int, seed: int) -> Iterator[tuple[str, Graph, str]]:
    """Named graphs relevant to the minimum-degree conjecture for order
    t+1, each with how its exclusion of that minor gets certified (clique
    pastes of minor-free blocks are minor-free by construction; blocks are
    small enough for the oracle)."""
    if t == 6:
        yield "K_{1,2,2,2,2}", complete_multipartite((1, 2, 2, 2, 2)), "oracle"
        yield "planar_triangulation_n12", generate(
            GenSpec("planar_triangulation", n=12, seed=seed)
        ), "oracle"
    elif t == 7:
        yield "K_{2,2,2,2,2}", complete_multipartite((2, 2, 2, 2, 2)), "oracle"
        yield "paste_2xK_{2,2,2,2,2}_on_5cliques", clique_paste(
            ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)), 5, seed
        ), "construction"
    elif t == 8:
        yield "K_{2,2,2,3,3}", complete_multipartite((2, 2, 2, 3, 3)), "oracle"
        yield "K_{1,2,2,2,2,2}", complete_multipartite((1, 2, 2, 2, 2, 2)), "oracle"
        yield "paste_2xK_{1,2,2,2,2,2}_on_6cliques", clique_paste(
            ((1, 2, 2, 2, 2, 2), (1, 2, 2, 2, 2, 2)), 6, seed
        ), "construction"


def cmd_search_mindegree(args) -> Report:
    t = args.t
    conjectured_delta = table_row(t, "conjectured").delta
    config = {
        "t": t,
        "mode": args.mode,
        "conjectured_delta": conjectured_delta,
        "seed": args.seed,
        "samples": args.samples,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "cap": args.cap,
    }
    # (label, graph, entry, certified) of every graph the report lists
    probed = []
    if args.mode == "corpus":
        for name, g, how in _conjecture_corpus(t, args.seed):
            certified = how == "construction" or certify(g, t + 1, cap=args.cap)
            _, mindeg = min_degree_vertex(g)
            status = "ok"
            if certified and mindeg >= conjectured_delta:
                status = "tight" if mindeg == conjectured_delta else "counterexample"
            entry = {
                "name": name,
                "n": g.n,
                "m": g.m,
                "min_degree": mindeg,
                "certified_minor_free": certified,
                "certified_by": how,
                "known_excluded_order": t + 1,
                "status": status,
            }
            probed.append((name, g, entry, certified))
    else:
        if args.n_min > args.n_max or args.n_min < 1:
            raise ValueError("need 1 <= n-min <= n-max")
        if args.samples < 1:
            raise ValueError("need samples >= 1")
        max_seen = -1
        for index in range(args.samples):
            child_seed = args.seed * 1_000_003 + index
            rng_n = args.n_min + (child_seed % (args.n_max - args.n_min + 1))
            g = filtered_random(rng_n, child_seed, t + 1, oracle_cap=args.cap)
            _, mindeg = min_degree_vertex(g)
            max_seen = max(max_seen, mindeg)
            if mindeg > conjectured_delta:
                entry = {
                    "index": index,
                    "n": g.n,
                    "m": g.m,
                    "min_degree": mindeg,
                    "status": "counterexample",
                }
                probed.append((f"sample {index}", g, entry, True))

    entries = []
    counterexamples = []
    text = [
        f"minimum-degree conjecture check for order {t + 1} "
        f"(conjectured delta={conjectured_delta}, mode={args.mode})"
    ]
    for label, g, entry, certified in probed:
        entries.append(entry)
        text.append(
            f"  {label}: n={g.n} m={g.m} min_degree={entry['min_degree']} "
            f"{'certified' if certified else 'not-certified'} [{entry['status']}]"
        )
        if entry["status"] == "counterexample":
            counterexamples.append({"entry": entry, "edge_list": write_edge_list(g)})
    if args.mode == "random":
        summary = {
            "name": "summary",
            "samples": args.samples,
            "max_min_degree_seen": max_seen,
            "status": "summary",
        }
        entries.append(summary)
        text.append(f"  summary: {json.dumps(summary, sort_keys=True)}")
    for ce in counterexamples:
        text += ["counterexample graph:", ce["edge_list"].rstrip("\n")]
    if not counterexamples:
        text.append("no counterexample found")
    result = {
        "entries": entries,
        "counterexamples": counterexamples,
        "conjecture_holds_on_inputs": not counterexamples,
    }
    code = EXIT_COUNTEREXAMPLE if counterexamples else EXIT_OK
    return code, config, result, text


# ------------------------------------------------------------------- main


# how _render writes a scalar, by its exact type; bool is not int here
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    With indent set, json encodes in pure Python; this walk does the same
    with fewer calls and fewer pieces.  Lists, tuples and dicts are walked
    here, the scalars of _SCALARS written by its table, and anything else
    (a float, a subclass, an object json rejects) handed to json.dumps.
    Each scalar goes out as one piece together with the separator and key
    before it, and the pieces are joined once.
    """
    out: list[str] = []
    append = out.append

    def walk(o, head: str, indent: str) -> None:
        """Write head, then o at the given indent."""
        scalar = _SCALARS.get(type(o))
        if scalar is not None:
            append(head + scalar(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append(head + "[]")
                return
            inner = indent + "  "
            sep, comma = head + "[" + inner, "," + inner
            for item in o:
                walk(item, sep, inner)
                sep = comma
            append(indent + "]")
        elif isinstance(o, dict):
            if not o:
                append(head + "{}")
                return
            inner = indent + "  "
            sep, comma = head + "{" + inner, "," + inner
            for key, value in sorted(o.items()):
                name = encode_basestring_ascii(key if type(key) is str else _key(key))
                walk(value, sep + name + ": ", inner)
                sep = comma
            append(indent + "}")
        else:
            append(head + json.dumps(o))

    walk(obj, "", "\n")
    return "".join(out)


def _key(key) -> str:
    """A dict key whose type is not exactly str, as json writes it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; built once, since it holds nothing
    that depends on the environment."""
    parser = argparse.ArgumentParser(
        prog="minorcolor",
        description="coloring and exact minor testing for clique-minor-free graphs",
    )
    parser.add_argument("--version", action="version", version=f"minorcolor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a graph by iterated contraction")
    p.add_argument("path")
    p.add_argument("--t", type=int, required=True, help="excluded minor order minus one")
    p.add_argument("--mode", choices=("proven", "conjectured"), default="proven")
    p.add_argument("--delta", type=int, help="override the minimum-degree bound")
    p.add_argument("--alpha", type=int, help="override the independence guarantee")
    p.add_argument("--audit", action="store_true", help="verify neighborhood minor-freeness")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("check-minor", help="exact clique-minor test with witness")
    p.add_argument("path")
    p.add_argument("--t", type=int, required=True, help="clique minor order to look for")
    p.set_defaults(func=cmd_check_minor)

    p = sub.add_parser("alpha", help="independence guarantees for (n, t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("bounds-table", help="per-order bound table")
    p.add_argument("--conjectured", action="store_true")
    p.set_defaults(func=cmd_bounds_table)

    p = sub.add_parser("gen", help="generate a certified minor-free graph")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parts", help="part sizes, e.g. '2,2,2,2,2'")
    p.add_argument("--blocks", help="semicolon-separated part lists, e.g. '2,2,2,2,2;2,2,2,2,2'")
    p.add_argument("--clique-size", type=int, dest="clique_size")
    p.add_argument("--forbid", type=int, help="forbidden minor order for filtered_random")
    p.add_argument("--max-rejects", type=int, default=30, dest="max_rejects")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search-mindegree", help="probe the minimum-degree conjectures")
    p.add_argument("--t", type=int, required=True, choices=(6, 7, 8))
    p.add_argument("--mode", choices=("corpus", "random"), default="corpus")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--n-min", type=int, default=8, dest="n_min")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search_mindegree)

    for name in ("color", "check-minor", "gen", "search-mindegree"):
        sub.choices[name].add_argument(
            "--cap",
            type=_cap,
            help=f"vertex cap of the exact clique-minor search (default: "
            f"${ORACLE_CAP_ENV}, else {DEFAULT_SEARCH_CAP})",
        )
    # declared last on every subcommand, so it stays last in each usage line
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "cap" in vars(args) and args.cap is None:
        env = os.environ.get(ORACLE_CAP_ENV)
        try:
            args.cap = _cap(env) if env else DEFAULT_SEARCH_CAP
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{ORACLE_CAP_ENV}: {exc}")
    try:
        code, config, result, text = args.func(args)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MinorColorError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "structured":
        envelope = {
            "tool": "minorcolor",
            "version": __version__,
            "command": args.command,
            "config": config,
            "input_sha256": config.get("input_sha256"),
            "result": result,
        }
        print(_render(envelope))
    else:
        print(*text, sep="\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
