"""Per-layer spans recorded from outside the program.

Tracer.install wraps the public functions listed in LAYERS and rebinds
every name in the minorcolor package that refers to one of them, including
names a module imported with `from .graph import ...`, so calls between
modules go through the wrappers too.  A span is (name, start, end, parent
index, note); spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# The wrapped functions, by module of src/minorcolor.  bounds (a table
# lookup) and oracles (test-only) are not measured.
LAYERS = {
    "cli": ("main",),
    "formats": ("load_graph", "save_graph", "sha256_of_file"),
    "coloring": ("color_by_contraction",),
    "graph": (
        "contract_set",
        "induced_subgraph",
        "without_vertex",
        "min_degree_vertex",
        "is_proper_coloring",
    ),
    "indep": ("max_independent_set",),
    "minor": ("has_clique_minor",),
    "generators": ("filtered_random",),
}

# What a span remembers of its call, for counters beyond calls and time.
NOTES = {
    "indep.max_independent_set": lambda args, result: args[0].n,
    "minor.has_clique_minor": lambda args, result: (args[0].n, result is not None),
    "generators.filtered_random": lambda args, result: result.m,
}

# (name, unit, better) of every metric a traced run reports.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("formats.load_graph.calls", "count", "lower"),
    ("formats.load_graph.self_s", "s", "lower"),
    ("formats.save_graph.self_s", "s", "lower"),
    ("formats.sha256_of_file.self_s", "s", "lower"),
    ("coloring.color_by_contraction.calls", "count", "lower"),
    ("coloring.color_by_contraction.self_s", "s", "lower"),
    ("graph.contract_set.calls", "count", "lower"),
    ("graph.contract_set.self_s", "s", "lower"),
    ("graph.induced_subgraph.calls", "count", "lower"),
    ("graph.induced_subgraph.self_s", "s", "lower"),
    ("graph.without_vertex.calls", "count", "lower"),
    ("graph.without_vertex.self_s", "s", "lower"),
    ("graph.min_degree_vertex.calls", "count", "lower"),
    ("graph.min_degree_vertex.self_s", "s", "lower"),
    ("graph.is_proper_coloring.self_s", "s", "lower"),
    ("indep.max_independent_set.calls", "count", "lower"),
    ("indep.max_independent_set.self_s", "s", "lower"),
    ("indep.max_independent_set.n_max", "count", "lower"),
    ("minor.has_clique_minor.calls", "count", "lower"),
    ("minor.has_clique_minor.self_s", "s", "lower"),
    ("minor.has_clique_minor.found", "count", "lower"),
    ("minor.has_clique_minor.none", "count", "lower"),
    ("minor.has_clique_minor.n_max", "count", "lower"),
    ("generators.filtered_random.self_s", "s", "lower"),
    ("generators.candidates", "count", "lower"),
    ("generators.accept_ratio", "frac", "higher"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self.recording = False
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap LAYERS in the minorcolor modules already imported."""
        wrapped = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"minorcolor.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "minorcolor" and not modname.startswith("minorcolor."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return wrapper


def summarize(spans: list[tuple], lo: int, hi: int) -> tuple[dict, dict, float]:
    """Counts and self times of spans[lo:hi], one traced pass.

    Returns (counts, self_s, root_s): counts are exact and must repeat
    from pass to pass; root_s is the time covered by top-level spans,
    which equals the sum of all self times.
    """
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent - lo] += end - start
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    root_s = 0.0
    mis_n = [0]
    minor_n = [0]
    found = candidates = accepted = 0
    for i, (name, start, end, parent, note) in enumerate(spans[lo:hi]):
        counts[name] = counts.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        if parent < 0:
            root_s += end - start
        if note is None:
            continue
        if name == "indep.max_independent_set":
            mis_n.append(note)
        elif name == "minor.has_clique_minor":
            minor_n.append(note[0])
            found += note[1]
            if parent >= 0 and spans[parent][0] == "generators.filtered_random":
                candidates += 1
        elif name == "generators.filtered_random":
            accepted += note
    hcm_calls = counts.get("minor.has_clique_minor", 0)
    counts.update(
        {
            "indep.max_independent_set.n_max": max(mis_n),
            "minor.has_clique_minor.n_max": max(minor_n),
            "minor.has_clique_minor.found": found,
            "minor.has_clique_minor.none": hcm_calls - found,
            "generators.candidates": candidates,
            "generators.accepted": accepted,
        }
    )
    return counts, self_s, root_s


def layer_metrics(
    spans: list[tuple],
    traced: list[tuple[int, int, float, float]],
    untraced_pass_s: list[float],
) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics from the traced passes.

    traced holds (lo, hi, pass seconds, scale) per traced pass: its spans
    are spans[lo:hi], pass seconds is the sum of its call latencies and
    scale converts that pass's wall times to normalized ones.
    untraced_pass_s holds normalized untraced pass times.  Counts come from
    one pass and must be identical in every other traced pass; times are
    normalized medians over the traced passes.  The second value says what
    differed when counts did not repeat.
    """
    summaries = [summarize(spans, lo, hi) for lo, hi, _, _ in traced]
    scales = [scale for _, _, _, scale in traced]
    counts = summaries[0][0]
    mismatch = None
    for i, (other, _, _) in enumerate(summaries[1:], start=1):
        if other != counts:
            diff = sorted(k for k in counts.keys() | other.keys() if counts.get(k) != other.get(k))
            mismatch = f"traced pass {i} counts differ from pass 0 in {diff}"
            break

    def self_median(name: str) -> float:
        return statistics.median(
            s.get(name, 0.0) * scale for (_, s, _), scale in zip(summaries, scales)
        )

    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = counts.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            values[metric] = self_median(metric[: -len(".self_s")])
        elif metric in counts:
            values[metric] = counts[metric]
    values["generators.accept_ratio"] = (
        counts["generators.accepted"] / counts["generators.candidates"]
        if counts["generators.candidates"]
        else 0.0
    )
    traced_s = statistics.median(wall * scale for _, _, wall, scale in traced)
    untraced_s = statistics.median(untraced_pass_s)
    unattributed = statistics.median(
        (wall - root) * scale for (_, _, wall, scale), (_, _, root) in zip(traced, summaries)
    )
    values["trace.pass_s"] = traced_s
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["trace.unattributed_s"] = unattributed
    values["trace.unattributed_frac"] = unattributed / traced_s
    return values, mismatch


def write_spans(path, spans: list[tuple], traced: list[tuple[int, int, float, float]]) -> None:
    """One line per span: traced pass, index, name, start, end (tracer
    clock seconds), parent index."""
    with open(path, "w") as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\n")
        for p, (lo, hi, _, _) in enumerate(traced):
            for i in range(lo, hi):
                name, start, end, parent, _ = spans[i]
                fh.write(f"{p}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
