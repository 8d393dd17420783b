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


#: :func:`hour_slot` takes its fast path below this many hours since the
#: epoch, far inside the range where every whole hour is a float.
_FAST_HOURS = 2.0**40


def hour_slot(times: np.ndarray, tz_offset_hours: np.ndarray | float = 0.0) -> np.ndarray:
    """Integer hour-of-day slot 0..23 (the paper's 1-hour α slots).

    Bitwise ``floor(hour_of_day(times, tz_offset_hours))``, without its
    float ``%`` on every row. Take the rounded quotient ``q = local /
    3600``. If ``q`` is in ``[0, 2**40)`` and not a whole number, ``floor(q)``
    is the exact hour count, so ``floor(q) % 24`` is the slot:
    ``hour_of_day``'s own rounding can reach the next whole hour only
    where ``q``'s does too, and then ``q`` is whole. The other rows (a
    whole ``q``, a negative, non-finite or huge local time) take the
    reference formula.
    """
    t = np.asarray(times, dtype=float)
    tz = np.asarray(tz_offset_hours, dtype=float)
    quotient = np.asarray(t + SECONDS_PER_HOUR * tz, dtype=float)
    quotient /= SECONDS_PER_HOUR
    with np.errstate(invalid="ignore"):  # odd rows are overwritten below
        slot = quotient.astype(np.int64)  # truncation is floor for q >= 0
    odd = quotient == slot
    if quotient.size and not (quotient.min() >= 0.0 and quotient.max() < _FAST_HOURS):
        odd |= ~((quotient >= 0.0) & (quotient < _FAST_HOURS))
    slot %= 24
    if odd.any():
        local = (np.broadcast_to(t, odd.shape)[odd]
                 + SECONDS_PER_HOUR * np.broadcast_to(tz, odd.shape)[odd])
        slot[odd] = np.floor((local % SECONDS_PER_DAY) / SECONDS_PER_HOUR).astype(np.int64)
    return slot


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
