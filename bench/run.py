#!/usr/bin/env python3
"""Benchmark of the minorcolor CLI over seeded, closed-loop workloads.

    python3 bench/run.py --workload color_descent --seed 1 --seconds 30 --trace 0

One client in one process and one thread calls `minorcolor.cli.main(argv)`
in-process, capturing stdout, and repeats the workload's corpus (a "pass")
for --seconds seconds (at least three passes).  The program is imported
from src/ of the checkout this file sits in; a checkout without it exits
with code 2.

Every timing is normalized to a reference CPU speed by speed.SpeedProbe,
because a shared machine's speed can drift by up to 1.5x within a run;
raw wall times are printed alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes and prints the per-layer metrics (see tracing.py).  Every
call is checked outside the timed region: in the first pass by corpus.check,
in later passes by the sha256 of its stdout, which must equal the first
pass's.  --smoke runs tiny corpora for one pass (one of each kind with
--trace 1) and ignores --seconds.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it give sample counts and machine facts.
Input files, per-call latencies (calls-<workload>.tsv) and the spans of
traced runs (spans-<workload>.tsv) go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import corpus
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("call_ms.p50", "ms"),
    ("call_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]


def import_program():
    """Import minorcolor afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "minorcolor" or m.startswith("minorcolor.")]:
        del sys.modules[name]
    cli = importlib.import_module("minorcolor.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"minorcolor imported from {cli.__file__}, not from {SRC}")
    return cli


def program_api() -> SimpleNamespace:
    """The program's own checkers, as corpus.check uses them."""
    from minorcolor import coloring, graph, minor

    return SimpleNamespace(
        Graph=graph.Graph,
        Coloring=graph.Coloring,
        is_proper_coloring=graph.is_proper_coloring,
        MinorModel=minor.MinorModel,
        validate_model=minor.validate_model,
        has_clique_minor=minor.has_clique_minor,
        ContractionTrace=coloring.ContractionTrace,
        TraceStep=coloring.TraceStep,
        replay_trace=coloring.replay_trace,
    )


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def invoke(cli, argv: tuple[str, ...], probe: speed.SpeedProbe) -> tuple[float, float, int, str]:
    """One closed-loop call: (wall s, normalized s, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
                return -1

    code, wall, norm = probe.time(call)
    return wall, norm, code, out.getvalue()


class Checker:
    """Checks each call against the first pass's verified output."""

    def __init__(self, api) -> None:
        self.api = api
        self.reference: dict[str, tuple[str, str | None]] = {}
        self.failures: list[str] = []

    def __call__(self, call: corpus.Call, code: int, stdout: str) -> bool:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if call.name not in self.reference:
            self.reference[call.name] = (digest, corpus.check(call, code, stdout, self.api))
        first_digest, error = self.reference[call.name]
        if error is None and digest != first_digest:
            error = "structured stdout differs from the first pass"
        if error is not None:
            self.failures.append(f"{call.name}: {error}")
        return error is None


def run_pass(cli, calls, probe, tracer, traced: bool, check: Checker) -> dict:
    """Time every call of the corpus once, then check the outputs."""
    lo = len(tracer.spans)
    results = []
    for call in calls:
        tracer.recording = traced
        results.append(invoke(cli, call.argv, probe))
        tracer.recording = False
    return {
        "traced": traced,
        "span_range": (lo, len(tracer.spans)),
        "raw": [wall for wall, _, _, _ in results],
        "norm": [norm for _, norm, _, _ in results],
        "ok": [check(call, code, out) for call, (_, _, code, out) in zip(calls, results)],
    }


def end_to_end(passes: list[dict], setup_raw: list[float], setup_norm: list[float]):
    """(metrics, report lines) of an untraced run."""
    attempted = sum(len(p["ok"]) for p in passes)
    ok = sum(sum(p["ok"]) for p in passes)
    latency_ms = sorted(1000 * lat for p in passes for lat in p["norm"])
    values = {
        "setup_s": statistics.median(setup_norm),
        "pass_s": statistics.median(sum(p["norm"]) for p in passes),
        "call_ms.p50": statistics.median(latency_ms),
        "call_ms.p90": (
            statistics.quantiles(latency_ms, n=10)[8] if len(latency_ms) > 1 else latency_ms[0]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok / attempted,
    }
    samples = {
        "setup_s": f"median of {len(setup_norm)} set-ups; wall {statistics.median(setup_raw):.4g} s",
        "pass_s": f"median of {len(passes)} passes; "
        f"wall {statistics.median(sum(p['raw']) for p in passes):.4g} s",
        "call_ms.p50": f"{len(latency_ms)} calls",
        "call_ms.p90": f"{len(latency_ms)} calls",
        "peak_rss_mb": "whole process",
        "ok_frac": f"{ok} of {attempted} calls",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [
        f"  {name:<12} {values[name]:>12.6g} {unit:<4} ({samples[name]})"
        for name, unit in END_TO_END
    ]
    return metrics, lines


def per_layer(workload: str, passes: list[dict], tracer: tracing.Tracer):
    """(metrics, report lines, count mismatch or None) of a traced run."""
    traced = [
        (*p["span_range"], sum(p["raw"]), sum(p["norm"]) / sum(p["raw"]))
        for p in passes
        if p["traced"]
    ]
    untraced = [sum(p["norm"]) for p in passes if not p["traced"]]
    values, mismatch = tracing.layer_metrics(tracer.spans, traced, untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    spans_path = WORK / f"spans-{workload}.tsv"
    tracing.write_spans(spans_path, tracer.spans, traced)
    lines = [
        f"traced passes: {len(traced)}; spans written to {spans_path}",
        f"accept_ratio base: {values['generators.candidates']} oracle-tested candidates",
    ]
    if mismatch:
        lines.append(f"failed: {mismatch}")
    return metrics, lines, mismatch


def measure(args) -> dict:
    facts = machine_facts()
    if not (SRC / "minorcolor" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to benchmark: {SRC / 'minorcolor'} is missing")
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe = speed.SpeedProbe()

    setup_raw, setup_norm = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        (cli, calls), wall, normalized = probe.time(
            lambda: (import_program(), corpus.build(args.workload, args.seed, workdir, args.smoke))
        )
        setup_raw.append(wall)
        setup_norm.append(normalized)

    check = Checker(program_api())
    tracer = tracing.Tracer(clock=probe.clock)
    if args.trace:
        tracer.install()

    passes: list[dict] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        t0 = perf_counter()
        passes.append(run_pass(cli, calls, probe, tracer, traced, check))
        passes[-1]["elapsed"] = perf_counter() - t0
        if args.smoke:
            if len(passes) == 1 + args.trace:
                break
        elif len(passes) >= MIN_PASSES:
            elapsed = perf_counter() - start
            if elapsed + max(p["elapsed"] for p in passes) > args.seconds:
                break

    with open(WORK / f"calls-{args.workload}.tsv", "w") as fh:
        fh.write("pass\ttraced\tcall\twall_s\tnormalized_s\tok\n")
        for i, p in enumerate(passes):
            for call, raw, norm, ok in zip(calls, p["raw"], p["norm"], p["ok"]):
                fh.write(f"{i}\t{int(p['traced'])}\t{call.name}\t{raw:.6f}\t{norm:.6f}\t{int(ok)}\n")
    attempted = sum(len(p["ok"]) for p in passes)
    failed = attempted - sum(sum(p["ok"]) for p in passes)
    lines = [
        f"machine: {json.dumps(facts)}",
        f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(calls)} calls, "
        f"{attempted} calls, {failed} failed",
        "timings are normalized to the reference speed of speed.py",
    ]
    lines += [f"failed: {f}" for f in check.failures[:20]]
    mismatch = None
    if args.trace:
        metrics, more, mismatch = per_layer(args.workload, passes, tracer)
    else:
        metrics, more = end_to_end(passes, setup_raw, setup_norm)
    return {
        "lines": lines + more,
        "result": {
            "correct": failed == 0 and mismatch is None,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        report = measure(args)
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
