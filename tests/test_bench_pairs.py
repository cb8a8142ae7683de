"""The aggregation of tools/bench_pairs.py, on canned result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = {
    "wall_s": {"better": "lower", "bound": 0.2},
    "ops_per_s": {"better": "higher", "bound": 0.2},
}


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
    summary = bench_pairs.summarise(pairs, DECLARED)
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
    # 3/4 and 2/4 pairs won: below 9/10, so no gain is shown.  Both
    # parents spread well inside 0.2 of their median, but four pairs are
    # fewer than ten and some change run ties or loses to a parent run.
    assert [wall["gain_shown"], wall["unresolved"]] == [False, True]
    assert [ops["gain_shown"], ops["unresolved"]] == [False, True]


def ten_pairs(parent_walls, change_walls):
    return [(result_line(p, 1 / p), result_line(c, 1 / c))
            for p, c in zip(parent_walls, change_walls)]


PARENT = [0.030, 0.031, 0.029, 0.032, 0.030, 0.031, 0.029, 0.032, 0.030, 0.031]


def test_a_gain_needs_nine_pairs_in_ten_and_medians_beyond_the_parent_iqr():
    # Parent median 0.0305, quartiles 0.030 and 0.031: IQR 0.001.
    faster = [0.025] * 9 + [0.033]
    summary = bench_pairs.summarise(ten_pairs(PARENT, faster), DECLARED)["metrics"]
    assert summary["wall_s"]["change_wins"] == 9
    assert summary["wall_s"]["gain_shown"] is True
    assert summary["ops_per_s"]["gain_shown"] is True  # higher is better
    eight = [0.025] * 8 + [0.033] * 2
    summary = bench_pairs.summarise(ten_pairs(PARENT, eight), DECLARED)["metrics"]
    assert summary["wall_s"]["change_wins"] == 8
    assert summary["wall_s"]["gain_shown"] is False
    # Every pair won by a hair: the medians differ by less than the IQR.
    close = [w - 0.0001 for w in PARENT]
    summary = bench_pairs.summarise(ten_pairs(PARENT, close), DECLARED)["metrics"]
    assert summary["wall_s"]["change_wins"] == 10
    assert summary["wall_s"]["gain_shown"] is False
    # A slower change shows no gain, and a narrow parent spread resolves it.
    summary = bench_pairs.summarise(ten_pairs(PARENT, [0.040] * 10), DECLARED)["metrics"]
    assert summary["wall_s"]["gain_shown"] is False
    assert summary["wall_s"]["unresolved"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # Parent quartiles 0.02 and 0.04 around a median of 0.03: the IQR,
    # 0.02, exceeds 0.2 x 0.03.
    wide = [0.02, 0.04] * 5
    summary = bench_pairs.summarise(ten_pairs(wide, [0.03] * 10), DECLARED)["metrics"]
    assert summary["wall_s"]["unresolved"] is True
    # Unless every change run beats every parent run.
    summary = bench_pairs.summarise(ten_pairs(wide, [0.019] * 10), DECLARED)["metrics"]
    assert summary["wall_s"]["unresolved"] is False
    summary = bench_pairs.summarise(ten_pairs(wide, [0.02] * 10), DECLARED)["metrics"]
    assert summary["wall_s"]["unresolved"] is True  # a tie with the best parent run
    # A looser bound resolves the same runs.
    loose = {"wall_s": {"better": "lower", "bound": 0.7}}
    summary = bench_pairs.summarise(ten_pairs(wide, [0.03] * 10), loose)["metrics"]
    assert summary["wall_s"]["unresolved"] is False


def test_one_pair_is_its_own_quartiles_and_failures_are_summed():
    pairs = [(result_line(0.030, 100.0, failed=2), result_line(0.020, 150.0))]
    summary = bench_pairs.summarise(pairs, DECLARED)
    assert summary["correct"] is False
    assert summary["failed_ops"] == {"parent": 2, "change": 0}
    assert summary["metrics"]["wall_s"]["parent"] == {"median": 0.03, "q1": 0.03, "q3": 0.03}
    assert summary["metrics"]["wall_s"]["relative_change"] == pytest.approx(-0.3333)


def test_fewer_than_ten_pairs_are_unresolved_unless_every_change_run_wins():
    # Three pairs with a narrow parent spread (IQR 0.001 against
    # 0.2 x 0.030): a change 30 % slower is still unresolved.
    parent = [0.030, 0.031, 0.029]
    slower = ten_pairs(parent, [0.039, 0.041, 0.038])
    wall = bench_pairs.summarise(slower, DECLARED)["metrics"]["wall_s"]
    assert wall["relative_change"] == round(0.039 / 0.030 - 1, 4)
    assert wall["unresolved"] is True
    # A change whose every run beats every parent run is resolved.
    faster = ten_pairs(parent, [0.020, 0.021, 0.019])
    wall = bench_pairs.summarise(faster, DECLARED)["metrics"]["wall_s"]
    assert wall["unresolved"] is False
