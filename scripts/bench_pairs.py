#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --seconds N --pairs K --out BENCH.json [--trace 0|1]

PARENT and CHANGE are checkout roots.  Each pair runs each checkout's own
`bench/run.py` once, one after the other; the side that runs first
alternates from pair to pair, so a drift in machine speed falls on both
sides alike.  Every run's last stdout line (its metrics) is kept.

For each metric the summary gives each side's median and quartiles and
how many pairs the change won and lost; a tie counts for neither side.
Each end-to-end metric also gets a verdict (see `verdict`) against its
regression bound, printed on its summary line.  Whether a metric is better
lower or higher, and the bounds, come from CHANGE's BENCHMARK.json, which
is only read.  The entry is appended to --out (created if missing), next
to `nproc` and the Python version, so one file can hold every workload of
a comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _relative(diff: float, base: float) -> float:
    """diff as a fraction of |base|; a non-zero diff on a zero base is
    infinitely large."""
    if base:
        return diff / abs(base)
    return 0.0 if diff == 0 else float("inf")


def verdict(row: dict, parent: list[float], change: list[float], sign: int,
            bound: float) -> str:
    """How a change moved one metric, given its summary row, each side's
    values and its regression bound (a fraction of the parent's median).
    sign is 1 when lower is better and -1 when higher is.  In order:

    - "unresolved": the parent's own spread, (q3 - q1) / median, is wider
      than the bound, so no shift within it can be told from noise, unless
      every change run beats every parent run;
    - "regressed": the change's median is worse than the parent's by more
      than the bound;
    - "gain": the change won at least nine tenths of the pairs, and the
      medians differ in its favour by more than the parent's quartile
      distance;
    - "within bound": anything else.
    """
    p, c = row["parent"], row["change"]
    iqr = p["q3"] - p["q1"]
    separated = max(sign * x for x in change) < min(sign * x for x in parent)
    if _relative(iqr, p["median"]) > bound and not separated:
        return "unresolved"
    if _relative(sign * (c["median"] - p["median"]), p["median"]) > bound:
        return "regressed"
    if 10 * row["change_wins"] >= 9 * row["pairs"] and sign * (p["median"] - c["median"]) > iqr:
        return "gain"
    return "within bound"


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per metric: each side's median and quartiles, pair wins and, for a
    metric with a bound in bounds, its verdict (None without one).

    parent[i] and change[i] are the metric values ({name: value}) of pair
    i.  The change wins a pair when its value is strictly better in the
    metric's direction (better[name] is "lower" or "higher"), loses it
    when strictly worse, and an equal value is a tie.
    """
    summary = {}
    for name, direction in better.items():
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        sign = 1 if direction == "lower" else -1
        sides = {}
        for side, values in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
            q1, median, q3 = quartiles(values)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        row = summary[name] = {
            **sides,
            "pairs": len(pairs),
            "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
            "change_losses": sum(sign * (p - c) < 0 for p, c in pairs),
        }
        row["verdict"] = None if name not in bounds else verdict(
            row, [p for p, _ in pairs], [c for _, c in pairs], sign, bounds[name]
        )
    return summary


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last-line result of one run of the checkout's own benchmark."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(getattr(args, side), args.workload, args.seed,
                               args.seconds, args.trace)
            runs[side].append(result)
            print(f"pair {index} {side}: correct={result['correct']} "
                  f"pass_s={result['metrics'].get('pass_s', {}).get('value')}", flush=True)

    values = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in rs]
              for side, rs in runs.items()}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "first": "parent on even pairs, change on odd pairs",
        "summary": summarize(values["parent"], values["change"], better, bounds),
        "runs": runs,
    }
    if args.out.exists():
        report = json.loads(args.out.read_text())
    else:
        report = {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "entries": [],
        }
    report["entries"].append(entry)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, row in entry["summary"].items():
        print(f"{name:<40} parent {row['parent']['median']:.6g} "
              f"change {row['change']['median']:.6g} "
              f"wins {row['change_wins']}/{row['pairs']} losses {row['change_losses']}"
              f"{'' if row['verdict'] is None else '  ' + row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
