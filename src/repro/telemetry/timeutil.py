"""Time discretization helpers.

The paper discretizes time into 1-hour slots for the α estimation
(Section 2.4.1) and into four 6-hour local-time periods for the
time-of-day analyses (Section 3.6). These helpers map raw timestamps to
those discrete labels, honoring per-record timezone offsets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


def hour_of_day(times: np.ndarray, tz_offset_hours: np.ndarray | float = 0.0) -> np.ndarray:
    """Local hour of day in ``[0, 24)`` for each timestamp."""
    t = np.asarray(times, dtype=float)
    local = t + SECONDS_PER_HOUR * np.asarray(tz_offset_hours, dtype=float)
    return (local % SECONDS_PER_DAY) / SECONDS_PER_HOUR


def hour_slot(times: np.ndarray, tz_offset_hours: np.ndarray | float = 0.0) -> np.ndarray:
    """Integer hour-of-day slot 0..23 (the paper's 1-hour α slots)."""
    return np.floor(hour_of_day(times, tz_offset_hours)).astype(np.int64)


def absolute_hour_slot(times: np.ndarray) -> np.ndarray:
    """Integer slot counting hours since the epoch (not wrapped by day).

    Useful when α should be estimated per *calendar* hour rather than per
    hour-of-day, e.g. for short traces that span only a couple of days.
    """
    return np.floor(np.asarray(times, dtype=float) / SECONDS_PER_HOUR).astype(np.int64)


def day_index(times: np.ndarray, tz_offset_hours: np.ndarray | float = 0.0) -> np.ndarray:
    """Integer day number since the epoch, in local time."""
    t = np.asarray(times, dtype=float)
    local = t + SECONDS_PER_HOUR * np.asarray(tz_offset_hours, dtype=float)
    return np.floor(local / SECONDS_PER_DAY).astype(np.int64)


def month_index(times: np.ndarray, days_per_month: int = 30) -> np.ndarray:
    """Integer month number under a fixed-length synthetic calendar.

    The simulator uses a simplified calendar of ``days_per_month`` days so
    "January vs February" (Figure 9) becomes month 0 vs month 1.
    """
    if days_per_month <= 0:
        raise ConfigError(f"days_per_month must be positive, got {days_per_month}")
    t = np.asarray(times, dtype=float)
    return np.floor(t / (days_per_month * SECONDS_PER_DAY)).astype(np.int64)


def window_index(times: np.ndarray, window_seconds: float) -> np.ndarray:
    """Integer index of the fixed-width time window containing each time."""
    if window_seconds <= 0:
        raise ConfigError(f"window_seconds must be positive, got {window_seconds}")
    return np.floor(np.asarray(times, dtype=float) / window_seconds).astype(np.int64)
