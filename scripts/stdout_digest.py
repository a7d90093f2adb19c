#!/usr/bin/env python3
"""Digest every CLI call of the three benchmark corpora, for diffing.

Usage: python3 scripts/stdout_digest.py SRC SEED

SRC is the `src` directory of the checkout to run; SEED picks the corpora.
The corpora are built by `bench/corpus.build` and each call goes through
`minorcolor.cli.main` in-process.  Everything runs inside a fresh temporary
directory with relative paths, so the paths the program echoes are the same
for every checkout.  One line per call: workload, call name, exit code,
sha256 of stdout, then `file=sha256` for each file the call wrote.  Two
checkouts behave byte-identically on the corpora iff `diff` of their output
is empty.
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
                before = _files()
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(call.argv))
                written = [f"{p}={d}" for p, d in _files().items() if before.get(p) != d]
                print(workload, call.name, code, _digest(out.getvalue().encode()), *written)
        os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
