import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_medians_quartiles_and_ties():
    parent = [{"pass_s": v, "ok_frac": 1.0} for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    change = [{"pass_s": v, "ok_frac": f} for v, f in
              ((2.0, 1.0), (1.0, 1.0), (2.5, 0.9), (2.5, 1.0), (1.5, 1.0))]
    summary = bench_pairs.summarize(
        parent, change, {"pass_s": "lower", "ok_frac": "higher", "absent": "lower"}, {}
    )
    assert set(summary) == {"pass_s", "ok_frac"}
    row = summary["pass_s"]
    assert row["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert row["change"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    # pair 1 is a tie (1.0 against 1.0) and counts for neither side
    assert (row["pairs"], row["change_wins"], row["change_losses"]) == (5, 3, 1)
    # higher is better: only the pair where the change fell to 0.9 is decided
    row = summary["ok_frac"]
    assert (row["change_wins"], row["change_losses"]) == (0, 1)
    assert row["change"]["median"] == 1.0


def test_quartiles_of_one_and_of_even_counts():
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))


def _verdicts(parent, change, better="lower", bound=0.2):
    summary = bench_pairs.summarize(
        [{"m": v} for v in parent], [{"m": v} for v in change], {"m": better}, {"m": bound}
    )
    return summary["m"]["verdict"]


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles 0.8 and 1.2 around 1.0: a spread of 0.4 > 0.2
    parent = [0.6, 0.8, 1.0, 1.2, 1.4] * 2
    # a large point gain that still overlaps the parent's runs
    assert _verdicts(parent, [0.5, 0.5, 0.5, 0.5, 0.7] * 2) == "unresolved"
    # and a large loss tells no more
    assert _verdicts(parent, [1.5] * 10) == "unresolved"
    # unless every change run beats every parent run
    assert _verdicts(parent, [0.5] * 10) == "gain"


def test_verdict_regressed_past_the_bound():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert _verdicts(parent, [v * 1.3 for v in parent]) == "regressed"
    # higher is better: a fall of more than the bound
    assert _verdicts(parent, [v * 0.7 for v in parent], better="higher") == "regressed"
    # a 10% loss is inside a 20% bound
    assert _verdicts(parent, [v * 1.1 for v in parent]) == "within bound"


def test_verdict_gain_needs_nine_tenths_of_pairs_and_a_gap_over_the_parent_iqr():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert _verdicts(parent, [v * 0.9 for v in parent]) == "gain"
    assert _verdicts(parent, [v * 1.1 for v in parent], better="higher") == "gain"
    # eight wins of ten are not enough
    change = [v * 0.9 for v in parent[:8]] + [1.5, 1.5]
    assert _verdicts(parent, change) == "within bound"
    # ten wins, but by less than the parent's quartile distance (0.01)
    assert _verdicts(parent, [v - 0.001 for v in parent]) == "within bound"


def test_verdict_on_zero_medians_and_unbounded_metrics():
    # ok_frac-like metric at its ceiling, and a count that reads 0 throughout
    assert _verdicts([1.0] * 10, [1.0] * 10, better="higher", bound=0.01) == "within bound"
    assert _verdicts([0.0] * 10, [0.0] * 10) == "within bound"
    assert _verdicts([0.0] * 10, [1.0] * 10) == "regressed"
    summary = bench_pairs.summarize([{"n": 1.0}], [{"n": 2.0}], {"n": "lower"}, {})
    assert summary["n"]["verdict"] is None
