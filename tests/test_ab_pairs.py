# -*- coding: utf-8 -*-

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

BETTER = {"solve_ref": "lower", "solved_frac": "higher", "iters": "lower"}


def pairs(rev, checkout, name="solve_ref"):
    return [({name: a}, {name: b}) for a, b in zip(rev, checkout)]


def row(rows, name):
    return next(r for r in rows if r["metric"] == name)


def test_quartiles_interpolate_linearly():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_clear_gain_on_a_lower_is_better_metric():
    rev = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    new = [x * 0.85 for x in rev]
    r = row(ab_pairs.summarize(pairs(rev, new), BETTER), "solve_ref")
    assert r["wins"] == 10 and r["pairs"] == 10 and r["gain"]
    assert r["change"] == pytest.approx(-0.15)
    assert r["rev"][1] == pytest.approx(100.0)


def test_nine_of_ten_wins_is_enough_eight_is_not():
    rev = [100.0] * 10
    nine = [80.0] * 9 + [120.0]
    eight = [80.0] * 8 + [120.0] * 2
    assert row(ab_pairs.summarize(pairs(rev, nine), BETTER), "solve_ref")["gain"]
    r = row(ab_pairs.summarize(pairs(rev, eight), BETTER), "solve_ref")
    assert r["wins"] == 8 and not r["gain"]


def test_ties_count_for_neither_side_and_show_no_gain():
    r = row(ab_pairs.summarize(pairs([845] * 4, [845] * 4, "iters"), BETTER), "iters")
    assert r["wins"] == 0 and r["change"] == 0.0 and not r["gain"]


def test_median_shift_within_the_rev_spread_is_no_gain():
    # the checkout wins every pair, but by less than REV's quartile distance
    rev = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    new = [x - 1.0 for x in rev]
    r = row(ab_pairs.summarize(pairs(rev, new), BETTER), "solve_ref")
    assert r["wins"] == 10 and not r["gain"]


def test_higher_is_better_direction():
    r = row(ab_pairs.summarize(pairs([0.5] * 10, [1.0] * 10, "solved_frac"), BETTER),
            "solved_frac")
    assert r["wins"] == 10 and r["gain"]
    r = row(ab_pairs.summarize(pairs([1.0] * 10, [0.5] * 10, "solved_frac"), BETTER),
            "solved_frac")
    assert r["wins"] == 0 and not r["gain"]


def test_pairs_without_a_result_are_left_out():
    got = pairs([100.0, 100.0, 100.0], [80.0, 80.0, 80.0])
    got[1] = (None, got[1][1])
    r = row(ab_pairs.summarize(got, BETTER), "solve_ref")
    assert r["pairs"] == 2 and r["wins"] == 2
    assert ab_pairs.summarize([(None, None)], BETTER) == []


def test_pairs_with_a_failed_check_are_left_out_of_the_gain():
    # every checkout run is faster but failed its check: no pair counts,
    # so no gain is shown; one failed rev run leaves its pair out too
    rev = [({"solve_ref": 135.8}, True)] * 5
    failing = [({"solve_ref": 128.4}, False)] * 5
    pairs, left_out = ab_pairs.checked_pairs(list(zip(rev, failing)))
    assert pairs == [] and left_out == 5
    assert ab_pairs.summarize(pairs, BETTER) == []
    passing = [({"solve_ref": 128.4}, True)] * 5
    runs = list(zip(rev, passing))
    runs[2] = (({"solve_ref": 135.8}, False), passing[2])
    runs[4] = ((None, False), passing[4])
    pairs, left_out = ab_pairs.checked_pairs(runs)
    assert left_out == 2 and len(pairs) == 3
    r = row(ab_pairs.summarize(pairs, BETTER), "solve_ref")
    assert r["pairs"] == 3 and r["wins"] == 3


def test_format_names_sides_wins_and_gain():
    rows = ab_pairs.summarize(pairs([100.0] * 10, [80.0] * 10), BETTER)
    (line,) = ab_pairs.format_rows(rows)
    assert line == ("solve_ref: rev 100 [100, 100], checkout 80 [80, 80], "
                    "change -20.0 %, checkout won 10 of 10, gain shown")


def test_pair_line_shows_solve_setup_and_total():
    metrics = {"solve_ref": 48.04, "setup_s": 0.006312, "total_ref": 57.5, "iters": 428}
    assert ab_pairs.pair_line(3, "checkout", metrics, True) == (
        "pair 3 checkout: ok, solve_ref 48.04, setup_s 0.006312, total_ref 57.5")
    assert ab_pairs.pair_line(1, "rev", {"solve_ref": 50.0}, False) == (
        "pair 1 rev: CHECK FAILED, solve_ref 50")
    assert ab_pairs.pair_line(2, "rev", None, False) == "pair 2 rev: no result"
