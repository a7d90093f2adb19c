#!/usr/bin/env python3
"""Digest every CLI call of the three benchmark corpora, for diffing.

Usage: python3 scripts/stdout_digest.py SRC SEED

SRC is the `src` directory of the checkout to run; SEED picks the corpora.
The corpora are built by `bench/corpus.build` and each call goes through
`minorcolor.cli.main` in-process.  Everything runs inside a fresh temporary
directory with relative paths, so the paths the program echoes are the same
for every checkout.  One line per call: workload, call name, exit code,
sha256 of stdout, then `file=sha256` for each file the call wrote.  Each
`color` and `check-minor` call runs a second time on a DIMACS copy of its
input, written here from the edge list, so both readers are covered; its
line names the call with a `.col` suffix.  Each such call also runs once more
on the edge list with `--format text`, so the text renderer is covered too;
that line names the call with a `.text` suffix.  Two checkouts behave
byte-identically on the corpora iff `diff` of their output is empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ exactly as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus  # noqa: E402


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict[str, str]:
    """sha256 of every file under the working directory, by relative path."""
    return {str(p): _digest(p.read_bytes()) for p in sorted(Path().rglob("*")) if p.is_file()}


def _dimacs_copy(path: Path) -> Path:
    """Write the edge list at path as DIMACS `.col` beside it, 1-based."""
    n, edges = corpus.read_edge_list(str(path))
    lines = [f"c copy of {path.name}", f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    copy = path.with_suffix(".col")
    copy.write_text("\n".join(lines) + "\n")
    return copy


def _run(main, workload: str, name: str, argv: list[str]) -> None:
    before = _files()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    written = [f"{p}={d}" for p, d in _files().items() if before.get(p) != d]
    print(workload, name, code, _digest(out.getvalue().encode()), *written)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: stdout_digest.py SRC SEED", file=sys.stderr)
        return 2
    src, seed = Path(argv[0]).resolve(), int(argv[1])
    sys.path.insert(0, str(src))
    from minorcolor import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"minorcolor imported from {cli.__file__}, not from {src}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in corpus.WORKLOADS:
            workdir = Path(workload)
            workdir.mkdir()
            for call in corpus.build(workload, seed, workdir):
                _run(cli.main, workload, call.name, list(call.argv))
                if call.kind in ("color", "minor"):
                    copy = str(_dimacs_copy(Path(call.path)))
                    argv_col = [copy if a == call.path else a for a in call.argv]
                    _run(cli.main, workload, call.name + ".col", argv_col)
                    argv_text = ["text" if a == "structured" else a for a in call.argv]
                    _run(cli.main, workload, call.name + ".text", argv_text)
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
