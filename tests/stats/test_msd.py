"""Tests for the MSD/MAD (von Neumann) locality statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDataError
from repro.stats.msd import (
    compare_locality,
    mean_absolute_difference,
    mean_successive_difference,
    msd_mad_ratio,
)


class TestMSD:
    def test_constant_series(self):
        assert mean_successive_difference(np.ones(10)) == 0.0

    def test_alternating_series(self):
        values = np.array([0.0, 1.0, 0.0, 1.0])
        assert mean_successive_difference(values) == 1.0

    def test_needs_two_samples(self):
        with pytest.raises(EmptyDataError):
            mean_successive_difference(np.array([1.0]))


class TestMAD:
    def test_two_points(self):
        assert mean_absolute_difference(np.array([0.0, 4.0])) == 4.0

    def test_closed_form_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        brute = np.abs(values[:, None] - values[None, :]).sum() / (40 * 39)
        assert np.isclose(mean_absolute_difference(values), brute)

    def test_invariant_to_order(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=100)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert np.isclose(
            mean_absolute_difference(values), mean_absolute_difference(shuffled)
        )


class TestRatio:
    def test_sorted_is_small(self):
        assert msd_mad_ratio(np.arange(1000.0)) < 0.01

    def test_shuffled_is_near_one(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=5000)
        assert 0.9 < msd_mad_ratio(values) < 1.1


class TestCompareLocality:
    def test_ou_series_shows_locality(self):
        from repro.stats.ou_process import ar1_series

        values = ar1_series(4000, phi=0.98, rng=8)
        comparison = compare_locality(values, rng=9)
        assert comparison.actual < comparison.shuffled
        assert comparison.sorted < comparison.actual
        assert comparison.locality_strength > 0.5

    def test_random_series_no_locality(self):
        rng = np.random.default_rng(10)
        comparison = compare_locality(rng.normal(size=3000), rng=11)
        assert comparison.locality_strength < 0.1

    def test_strength_clipped(self):
        comparison = compare_locality(np.arange(100.0), rng=12)
        assert 0.0 <= comparison.locality_strength <= 1.0


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=200)
       .filter(lambda v: len(set(v)) > 1))
@settings(max_examples=50, deadline=None)
def test_sorted_no_larger_than_original(values):
    """Property: sorting never increases MSD/MAD (MAD is order-invariant)."""
    values = np.asarray(values)
    assert msd_mad_ratio(np.sort(values)) <= msd_mad_ratio(values) + 1e-9


def test_constant_series_ratio_zero():
    """A constant series is perfectly predictable: ratio defined as 0."""
    assert msd_mad_ratio(np.full(50, 7.0)) == 0.0
