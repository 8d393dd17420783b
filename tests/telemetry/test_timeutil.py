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
