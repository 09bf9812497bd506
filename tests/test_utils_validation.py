"""Tests for repro.utils.validation."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    check_fraction,
    check_in,
    check_non_negative,
    check_positive,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative(-0.1, "x")
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative(float("nan"), "x")


class TestCheckFraction:
    def test_accepts_bounds_inclusive(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "f")

    def test_exclusive_rejects_bounds(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "f", inclusive=False)
        assert check_fraction(0.5, "f", inclusive=False) == 0.5


class TestCheckIn:
    def test_accepts_member(self):
        assert check_in("a", ["a", "b"], "opt") == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="opt must be one of"):
            check_in("c", ["a", "b"], "opt")


class TestCheckType:
    def test_accepts_instance(self):
        assert check_type(3, int, "n") == 3

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            check_type("3", int, "n")

    def test_accepts_tuple_of_types(self):
        assert check_type(3.0, (int, float), "n") == 3.0
