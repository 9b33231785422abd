"""The line comparison behind check_reference_seeds.py --against."""

import math

from check_reference_seeds import compare_lines, relative_change


def test_relative_change_of_numbers_and_of_text():
    assert relative_change("gamma_hat=0.5", "gamma_hat=0.5") == 0.0
    assert relative_change("slack=2", "slack=3") == 1.0 / 3.0
    assert relative_change("a=1 b=-4", "a=1 b=-2") == 0.5
    assert relative_change("x=nan", "x=nan") == 0.0
    for old, new in (("x=1", "x=inf"), ("x=1", "x=nan"), ("x=nan", "x=1")):
        assert relative_change(old, new) == math.inf
    # a verdict that flips is not a numeric change
    assert relative_change("CHECK c: PASS slack=1", "CHECK c: FAIL slack=1") \
        == math.inf


def test_text_lines_are_keyed_by_their_words():
    old = "alpha_hat=2.5\ngamma_hat=0.25\nnu=1\n"
    new = "alpha_hat=2.5\ngamma_hat=0.375\nnu=1\nextra=3\n"
    assert compare_lines("constants.txt", old, new) == [
        (2, "constants.txt: gamma_hat=#", "gamma_hat=0.25",
         "gamma_hat=0.375", 1.0 / 3.0),
        (4, "constants.txt: line 4", "", "extra=3", math.inf)]


def test_csv_rows_are_keyed_by_their_columns():
    old = "k,phi,gnorm\n0,1.5,2\n1,1,0.5\n"
    new = "k,phi,gnorm\n0,1.5,2\n1,1,0.25\n"
    assert compare_lines("trace.csv", old, new) == [
        (3, "trace.csv: gnorm", "0.5", "0.25", 0.5)]
    assert compare_lines("trace.csv", old, old) == []
