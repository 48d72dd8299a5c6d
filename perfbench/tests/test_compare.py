"""The comparison rule on hand-made parent and change runs."""

import compare

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_clear_speedup_is_better():
    change = [v * 0.5 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.25) == "better"


def test_slowdown_beyond_the_bound_is_worse():
    change = [v * 1.3 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.25) == "worse"


def test_same_numbers_are_unchanged_and_direction_matters():
    assert compare.verdict(PARENT, PARENT, "lower", 0.25) == "unchanged"
    change = [v * 1.3 for v in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.25) == "better"


def test_too_few_pairs_or_too_wide_a_spread_is_unresolved():
    assert compare.verdict(PARENT[:5], PARENT[:5], "lower",
                           0.25).startswith("unresolved")
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(wide, wide, "lower", 0.25).startswith("unresolved")
