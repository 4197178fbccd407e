import pandas as pd

from harness.gate import diff

KEYS = ["strategy_id", "metric_id", "bucket_id"]
VALUES = ["bucket_sum", "bucket_exposed"]


def _frame(rows):
    return pd.DataFrame(rows, columns=KEYS + VALUES)


ROWS = [(1, 10, 0, 5.0, 3), (1, 10, 1, 7.0, 4), (2, 10, 0, 0.0, 2)]


def test_equal_results_pass_in_any_row_order():
    assert diff(_frame(ROWS), _frame(ROWS[::-1]), KEYS, VALUES) == []


def test_planted_sum_mismatch_is_flagged():
    bad = list(ROWS)
    bad[1] = (1, 10, 1, 8.0, 4)
    problems = diff(_frame(bad), _frame(ROWS), KEYS, VALUES)
    assert problems == ["1 rows differ in bucket_sum"]


def test_planted_exposed_mismatch_is_flagged():
    bad = list(ROWS)
    bad[0] = (1, 10, 0, 5.0, 2)
    assert diff(_frame(bad), _frame(ROWS), KEYS, VALUES) == ["1 rows differ in bucket_exposed"]


def test_missing_row_is_flagged():
    problems = diff(_frame(ROWS[:2]), _frame(ROWS), KEYS, VALUES)
    assert "row count: bsi=2 normal=3" in problems
    assert "1 keys only in normal" in problems


def test_empty_results_never_agree():
    empty = _frame([])
    assert diff(empty, empty, KEYS, VALUES)
    assert diff(empty, _frame(ROWS), KEYS, VALUES)


def test_duplicate_keys_are_flagged():
    problems = diff(_frame(ROWS + ROWS[:1]), _frame(ROWS + ROWS[:1]), KEYS, VALUES)
    assert "bsi: 1 duplicate keys" in problems


def test_swapped_key_with_equal_counts_is_flagged():
    moved = list(ROWS)
    moved[2] = (2, 10, 1, 0.0, 2)
    problems = diff(_frame(moved), _frame(ROWS), KEYS, VALUES)
    assert problems == ["1 keys only in bsi", "1 keys only in normal"]
