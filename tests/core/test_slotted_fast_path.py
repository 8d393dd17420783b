"""``slotted_counts`` skips work a time-sorted slice does not need.

A slice already in time order skips the stable sort and its gathers, and
slot ids within a span no longer than the slice are found with a
``bincount`` and a lookup table. Both must give what the sort-based
computation gives, kept here as the reference, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.alpha import (
    SLOT_SCHEMES,
    _exact_unbiased_tensor,
    _slot_rows,
    slot_of_times,
    slotted_counts,
)
from repro.core.unbiased import _in_time_order
from repro.stats.histogram import latency_bins
from repro.telemetry import LogStore


def reference_slotted_counts(logs, bins, scheme):
    """The sort-based computation: sorted distinct slot ids, a binary search
    per action, and a stable time sort of every slice."""
    action_slots = slot_of_times(logs.times, scheme, logs.tz_offsets)
    slot_ids = np.unique(action_slots)
    bin_idx = bins.index_of(logs.latencies_ms)
    in_grid = bin_idx >= 0
    flat = np.searchsorted(slot_ids, action_slots)[in_grid] * bins.count + bin_idx[in_grid]
    c = np.bincount(flat, minlength=slot_ids.size * bins.count).astype(float)
    order = np.argsort(logs.times, kind="mergesort")
    u, seconds = _exact_unbiased_tensor(logs.times[order], bin_idx[order], slot_ids,
                                        bins.count, scheme, float(np.median(logs.tz_offsets)))
    totals = u.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(totals > 0, u / totals, 0.0)
    return slot_ids, c.reshape(slot_ids.size, bins.count), f, seconds


def assert_bitwise(counts, slot_ids, c, f, seconds):
    for got, want in ((counts.slot_ids, slot_ids), (counts.biased_counts, c),
                      (counts.time_fractions, f), (counts.slot_seconds, seconds)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _store(seed, n=4000, days=6.0, tz=(0.0,)):
    rng = np.random.default_rng(seed)
    times = np.sort(np.round(rng.uniform(0.0, days * 86400.0, n), 1))
    return LogStore.from_arrays(
        times, rng.lognormal(np.log(400.0), 0.5, n), ["SelectMail"] * n,
        tz_offsets=rng.choice(tz, n))


@pytest.mark.parametrize("scheme", SLOT_SCHEMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_store_equals_its_time_sorted_copy(scheme, seed):
    logs = _store(seed, tz=(-5.0, 0.0, 5.5))
    shuffled = logs._take(np.random.default_rng(seed).permutation(len(logs)))
    bins = latency_bins()
    assert_bitwise(slotted_counts(shuffled.sorted_by_time(), bins, scheme),
                   *reference_slotted_counts(shuffled, bins, scheme))
    assert_bitwise(slotted_counts(shuffled, bins, scheme),
                   *reference_slotted_counts(shuffled, bins, scheme))


@pytest.mark.parametrize("scheme", SLOT_SCHEMES)
def test_every_scheme_matches_the_sort_based_computation(owa_logs, scheme):
    """The generated store is time-sorted, so every slice takes the fast path."""
    bins = latency_bins()
    for action in ("SelectMail", "Search"):
        sliced = owa_logs.where(action=action)
        assert_bitwise(slotted_counts(sliced, bins, scheme),
                       *reference_slotted_counts(sliced, bins, scheme))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_nan_times_take_the_sort_path():
    logs = _store(3, n=300)
    times = logs.times.copy()
    times[::17] = np.nan
    nan_logs = LogStore.from_arrays(times, logs.latencies_ms, ["SelectMail"] * len(logs))
    latencies = nan_logs.latencies_ms
    sorted_times, sorted_latencies = _in_time_order(nan_logs.times, latencies)
    order = np.argsort(nan_logs.times, kind="mergesort")
    assert sorted_times is not nan_logs.times
    assert np.array_equal(sorted_times, nan_logs.times[order], equal_nan=True)
    assert np.array_equal(sorted_latencies, latencies[order])
    assert _in_time_order(logs.times, latencies)[0] is logs.times  # sorted: no copy
    bins = latency_bins()
    counts = slotted_counts(nan_logs, bins, "hour-of-day")
    slot_ids, c, f, seconds = reference_slotted_counts(nan_logs, bins, "hour-of-day")
    assert counts.slot_ids.tobytes() == slot_ids.tobytes()
    assert counts.biased_counts.tobytes() == c.tobytes()
    assert np.array_equal(counts.time_fractions, f, equal_nan=True)
    assert np.array_equal(counts.slot_seconds, seconds, equal_nan=True)


@pytest.mark.parametrize("slots", [
    np.random.default_rng(0).integers(0, 24, 5000),             # hour of day
    np.random.default_rng(1).integers(3, 20, 50),               # a few hours, offset
    np.array([7]),
    np.random.default_rng(2).integers(400_000, 400_336, 2000),  # absolute hours
    np.array([0, 10_000, 5]),                                   # span wider than the slice
    np.array([np.iinfo(np.int64).min, 3, 4, 3]),                # a NaN time's slot
])
def test_slot_rows_equal_the_binary_search(slots):
    slot_ids, rows = _slot_rows(slots)
    want = np.unique(slots)
    assert slot_ids.dtype == want.dtype and np.array_equal(slot_ids, want)
    assert np.array_equal(rows, np.searchsorted(want, slots))


def test_hour_of_day_rows_of_a_generated_slice(owa_logs):
    slots = slot_of_times(owa_logs.times, "hour-of-day", owa_logs.tz_offsets)
    slot_ids, rows = _slot_rows(slots)
    assert np.array_equal(slot_ids, np.arange(24))
    assert np.array_equal(rows, np.searchsorted(np.unique(slots), slots))
