"""Tests for time discretization helpers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.telemetry import timeutil
from repro.types import DayPeriod


class TestHourOfDay:
    def test_basic(self):
        hours = timeutil.hour_of_day(np.array([0.0, 3600.0, 86400.0 + 1800.0]))
        assert np.allclose(hours, [0.0, 1.0, 0.5])

    def test_tz_offset(self):
        hours = timeutil.hour_of_day(np.array([0.0]), tz_offset_hours=-5.0)
        assert np.isclose(hours[0], 19.0)

    def test_vector_tz(self):
        hours = timeutil.hour_of_day(np.array([0.0, 0.0]),
                                     tz_offset_hours=np.array([1.0, 2.0]))
        assert np.allclose(hours, [1.0, 2.0])


class TestSlots:
    def test_hour_slot(self):
        slots = timeutil.hour_slot(np.array([0.0, 3599.0, 3600.0]))
        assert slots.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("tz", [0.0, -5.0, 8.0, 5.5, -3.5, "per-row"])
    def test_hour_slot_is_floor_of_hour_of_day(self, tz):
        # Bitwise the reference at every hour edge of 400 days (the edge,
        # one ulp either side, in both signs), at signed zeros, subnormals,
        # the float-integer limits and beyond.
        edges = np.arange(400 * 24 + 1) * 3600.0
        edges = np.concatenate([
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        times = np.concatenate([edges, -edges, [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.0**52 - 1.0, 2.0**52, 2.0**53, -2.0**53, 2.0**53 + 2.0,
            3600.0 * 2.0**40, np.nextafter(3600.0 * 2.0**40, 0.0),
            1e17, -1e17, 1e300]])
        if tz == "per-row":
            tz = np.random.default_rng(0).choice([-5.0, 0.0, 5.5, 8.0], times.size)
        expected = np.floor(timeutil.hour_of_day(times, tz)).astype(np.int64)
        np.testing.assert_array_equal(timeutil.hour_slot(times, tz), expected)

    def test_hour_slot_of_non_finite_times_is_the_reference(self):
        times = np.array([np.nan, np.inf, -np.inf, 7200.5])
        with np.errstate(invalid="ignore"):
            expected = np.floor(timeutil.hour_of_day(times)).astype(np.int64)
            np.testing.assert_array_equal(timeutil.hour_slot(times), expected)

    def test_absolute_hour_slot(self):
        slots = timeutil.absolute_hour_slot(np.array([0.0, 86400.0 + 10.0]))
        assert slots.tolist() == [0, 24]

    def test_day_index(self):
        days = timeutil.day_index(np.array([10.0, 86400.0 * 2 + 5.0]))
        assert days.tolist() == [0, 2]

    def test_day_index_tz_shift(self):
        # 11pm UTC with +2h offset is already the next local day
        days = timeutil.day_index(np.array([23 * 3600.0]), tz_offset_hours=2.0)
        assert days.tolist() == [1]

    def test_month_index(self):
        months = timeutil.month_index(np.array([0.0, 31 * 86400.0]), days_per_month=30)
        assert months.tolist() == [0, 1]

    def test_month_index_validation(self):
        with pytest.raises(ConfigError):
            timeutil.month_index(np.array([0.0]), days_per_month=0)

    def test_window_index(self):
        windows = timeutil.window_index(np.array([0.0, 59.0, 60.0]), 60.0)
        assert windows.tolist() == [0, 0, 1]

    def test_window_index_validation(self):
        with pytest.raises(ConfigError):
            timeutil.window_index(np.array([0.0]), 0.0)


class TestDayPeriod:
    def test_all_hours_covered(self):
        for hour in range(24):
            assert DayPeriod.of_hour(hour) in DayPeriod

    def test_boundaries(self):
        assert DayPeriod.of_hour(8.0) == DayPeriod.MORNING
        assert DayPeriod.of_hour(13.99) == DayPeriod.MORNING
        assert DayPeriod.of_hour(14.0) == DayPeriod.AFTERNOON
        assert DayPeriod.of_hour(20.0) == DayPeriod.NIGHT
        assert DayPeriod.of_hour(1.99) == DayPeriod.NIGHT
        assert DayPeriod.of_hour(2.0) == DayPeriod.LATE_NIGHT

    def test_wraps_over_24(self):
        assert DayPeriod.of_hour(25.0) == DayPeriod.NIGHT
