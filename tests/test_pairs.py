"""The summary of tools/pairs.py, on made-up runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402

pytestmark = pytest.mark.usefixtures("time_bound")

METRICS = [{"name": "pass_s", "unit": "s", "better": "lower"},
           {"name": "claims_ok_frac", "unit": "ratio", "better": "higher"}]


def _run(pass_s, ok, failed=0):
    return {"correct": True, "failed": failed,
            "metrics": {"pass_s": {"value": pass_s}, "claims_ok_frac": {"value": ok}}}


def test_summary_counts_wins_in_each_metrics_direction():
    runs = {"parent": [_run(1.0, 1.0), _run(2.0, 0.5), _run(3.0, 1.0), _run(4.0, 1.0)],
            "change": [_run(0.5, 1.0), _run(2.5, 1.0), _run(2.0, 1.0), _run(4.0, 0.5, failed=3)]}
    s = pairs.summarise(runs, METRICS)
    assert s["pairs"] == 4
    assert s["metrics"]["pass_s"]["parent_median"] == 2.5
    assert s["metrics"]["pass_s"]["change_median"] == 2.25
    # inclusive quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert s["metrics"]["pass_s"]["parent_iqr"] == 1.5
    # lower is better: pairs 1 and 3 won, a tie is no win
    assert s["metrics"]["pass_s"]["wins"] == 2
    # higher is better: only pair 2 won
    assert s["metrics"]["claims_ok_frac"]["wins"] == 1
    assert s["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 3]}
    lines = pairs.report_lines("w", s)
    assert "# pass_s (s, lower is better): 2.5 -> 2.25, IQR 1.5, won 2/4" in lines
    assert lines[-1] == "# failed claims, change: [0, 0, 0, 3]"


def test_one_pair_has_no_spread():
    s = pairs.summarise({"parent": [_run(1.0, 1.0)], "change": [_run(1.0, 1.0)]}, METRICS)
    assert s["metrics"]["pass_s"]["parent_iqr"] == 0.0 and s["metrics"]["pass_s"]["wins"] == 0
