"""The aggregation of tools/bench_pairs.py, on canned result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "ops_per_s": "higher"}


def result_line(wall_s, ops_per_s, failed=0):
    """The last stdout line of benchmarks/run.py, parsed."""
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        },
    }


def test_summary_of_four_pairs():
    pairs = [
        (result_line(0.030, 100.0), result_line(0.024, 120.0)),
        (result_line(0.031, 110.0), result_line(0.025, 110.0)),
        (result_line(0.029, 90.0), result_line(0.029, 95.0)),
        (result_line(0.032, 100.0), result_line(0.026, 99.0)),
    ]
    summary = bench_pairs.summarise(pairs, BETTER)
    assert summary["correct"] is True
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    wall = summary["metrics"]["wall_s"]
    # statistics.quantiles(method="inclusive") of 0.029, 0.030, 0.031, 0.032
    assert wall["parent"] == {"median": 0.0305, "q1": 0.02975, "q3": 0.03125}
    assert wall["change"] == {"median": 0.0255, "q1": 0.02475, "q3": 0.02675}
    # Lower is better; the tie at 0.029 counts for neither side.
    assert wall["change_wins"] == 3
    assert wall["relative_change"] == round(0.0255 / 0.0305 - 1, 4)
    ops = summary["metrics"]["ops_per_s"]
    # Higher is better: 120 > 100 and 95 > 90 win, 110 = 110 ties, 99 < 100 loses.
    assert ops["change_wins"] == 2
    assert ops["parent"]["median"] == 100.0
    assert ops["change"]["median"] == 104.5


def test_one_pair_is_its_own_quartiles_and_failures_are_summed():
    pairs = [(result_line(0.030, 100.0, failed=2), result_line(0.020, 150.0))]
    summary = bench_pairs.summarise(pairs, BETTER)
    assert summary["correct"] is False
    assert summary["failed_ops"] == {"parent": 2, "change": 0}
    assert summary["metrics"]["wall_s"]["parent"] == {"median": 0.03, "q1": 0.03, "q3": 0.03}
    assert summary["metrics"]["wall_s"]["relative_change"] == pytest.approx(-0.3333)

