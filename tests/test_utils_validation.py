"""Tests for repro.utils.validation."""

import pytest

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_finite_array,
    check_fraction,
    check_nonnegative_int,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts(self):
        assert check_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True, None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive_int(bad, "x")

    def test_message_names_param(self):
        with pytest.raises(ConfigurationError, match="n_servers"):
            check_positive_int(-2, "n_servers")


class TestCheckNonnegativeInt:
    def test_accepts_zero_and_numpy_ints(self):
        assert check_nonnegative_int(0, "x") == 0
        value = check_nonnegative_int(np.int64(3), "x")
        assert value == 3 and type(value) is int

    @pytest.mark.parametrize("bad", [-1, 2.5, 3.0, "3", True, None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            check_nonnegative_int(bad, "max_rounds")


class TestCheckPositive:
    def test_accepts_float(self):
        assert check_positive(0.5, "x") == 0.5

    def test_accepts_int(self):
        assert check_positive(2, "x") == 2.0

    @pytest.mark.parametrize("bad", [0, -0.1, "a", True, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive(bad, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, "p", None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability(bad, "p")


class TestCheckFraction:
    def test_open_left(self):
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "f", open_left=True)
        assert check_fraction(0.1, "f", open_left=True) == 0.1

    def test_open_right(self):
        with pytest.raises(ConfigurationError):
            check_fraction(1.0, "f", open_right=True)
        assert check_fraction(0.9, "f", open_right=True) == 0.9


class TestCheckFiniteArray:
    def test_accepts_and_returns_input(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert check_finite_array(arr, "m") is arr

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            check_finite_array(np.array([1.0, bad]), "m")

    def test_names_first_offending_index_1d(self):
        with pytest.raises(ConfigurationError, match="entry 2 is nan"):
            check_finite_array(np.array([0.0, 1.0, np.nan]), "m")

    def test_names_first_offending_index_2d(self):
        arr = np.array([[0.0, 1.0], [np.inf, 2.0]])
        with pytest.raises(ConfigurationError, match=r"entry \(1, 0\)"):
            check_finite_array(arr, "m")

    def test_nonnegative_gate(self):
        check_finite_array(np.array([0.0, 1.0]), "m", nonnegative=True)
        with pytest.raises(ConfigurationError, match="non-negative"):
            check_finite_array(np.array([1.0, -2.0]), "m", nonnegative=True)

    def test_message_is_actionable(self):
        with pytest.raises(ConfigurationError, match="generator or input file"):
            check_finite_array(np.array([np.nan]), "reads")
