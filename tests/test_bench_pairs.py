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
        parent, change, {"pass_s": "lower", "ok_frac": "higher", "absent": "lower"}
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
