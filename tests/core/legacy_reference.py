"""Verbatim ports of the pre-tensor ``repro.core.alpha`` loops.

The count tensor, the period lookup, the closed-form slot coverage, the
masked α arithmetic and the corrected-histogram contraction replaced these
per-slot / per-sample Python loops. They stay
here, in the test tree, as the reference the shipped fast paths are
checked against (``test_tensor_equivalence.py``) and as the Monte Carlo
reversion the perf gate must catch (``tests/obs/test_perf_gate.py``).
:func:`voronoi_weights` is the per-sample Voronoi cell the shipped kernel
(``repro.core.unbiased._voronoi_tensor``) replaced; it stays as the
reference for the uncorrected path (``test_voronoi.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.alpha import AlphaEstimate, SlottedCounts, slot_of_times
from repro.errors import EmptyDataError
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.stats.rng import SeedLike, spawn_rng
from repro.telemetry import timeutil
from repro.telemetry.log_store import LogStore
from repro.types import ALL_DAY_PERIODS, DayPeriod


def _legacy_nearest_time_sample(
    sample_times: np.ndarray,
    query_times: np.ndarray,
    rng: SeedLike = None,
    tie_tolerance: float = 0.0,
) -> np.ndarray:
    """The old nearest-sample kernel: two extra per-query searchsorted calls.

    Duplicate-timestamp runs were located by bisecting every query's winning
    time back into the sample array; the shipped version finds the runs with
    one linear pass over the samples instead.
    """
    times = np.asarray(sample_times, dtype=float)
    queries = np.asarray(query_times, dtype=float)
    if times.size == 0:
        raise EmptyDataError("no samples to draw from")

    right = np.searchsorted(times, queries, side="left")
    left = np.clip(right - 1, 0, times.size - 1)
    right = np.clip(right, 0, times.size - 1)
    dist_left = np.abs(queries - times[left])
    dist_right = np.abs(times[right] - queries)
    take_right = dist_right < dist_left
    nearest = np.where(take_right, right, left)

    generator = spawn_rng(rng)

    tied_lr = np.abs(dist_left - dist_right) <= tie_tolerance
    tied_lr &= left != right
    if np.any(tied_lr):
        flips = generator.random(int(tied_lr.sum())) < 0.5
        chosen = np.where(flips, left[tied_lr], right[tied_lr])
        nearest = nearest.copy()
        nearest[tied_lr] = chosen

    winning_times = times[nearest]
    run_start = np.searchsorted(times, winning_times, side="left")
    run_end = np.searchsorted(times, winning_times, side="right")
    run_len = run_end - run_start
    multi = run_len > 1
    if np.any(multi):
        offsets = (generator.random(int(multi.sum())) * run_len[multi]).astype(np.int64)
        nearest = nearest.copy()
        nearest[multi] = run_start[multi] + offsets
    return nearest


def _legacy_draw_unbiased_samples(logs, n_samples=None, rng=None):
    """The old unbiased draw, wired to the old nearest-sample kernel."""
    from repro.core.unbiased import UnbiasedDraw
    from repro.stats.sampling import random_times

    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    generator = spawn_rng(rng)
    order = np.argsort(logs.times, kind="mergesort")
    times = logs.times[order]
    latencies = logs.latencies_ms[order]
    lo, hi = float(times[0]), float(times[-1])
    if hi <= lo:
        hi = lo + 1.0
    if n_samples is None:
        n_samples = int(np.ceil(2.0 * times.size))
    queries = random_times(lo, hi, n_samples, rng=generator)
    selected = _legacy_nearest_time_sample(times, queries, rng=generator)
    return UnbiasedDraw(
        query_times=queries,
        selected_indices=selected,
        sample_times=times,
        sample_latencies=latencies,
    )


def voronoi_weights(
    sorted_times: np.ndarray,
    time_range: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """Per-sample weights equal to each sample's share of the time axis.

    As the number of random draws in the paper's estimator goes to
    infinity, the probability that a given sample is selected converges to
    the length of its 1-D Voronoi cell — the interval of times closer to
    it than to any neighbour — divided by the window length. Weighting
    samples by their cell lengths therefore computes the estimator's exact
    expectation with no Monte Carlo noise. Samples sharing one timestamp
    split their cell equally (the paper's random tie-break, in
    expectation).

    Returns weights normalized to sum to the window length.
    """
    times = np.asarray(sorted_times, dtype=float)
    if times.size == 0:
        raise EmptyDataError("no samples to weight")
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise EmptyDataError("sorted_times must be sorted ascending")
    if time_range is None:
        lo, hi = float(times[0]), float(times[-1])
        if hi <= lo:
            hi = lo + 1.0
    else:
        lo, hi = time_range

    # Each cell runs from the midpoint to the previous sample to the
    # midpoint to the next one, clipped to the window.
    midpoints = 0.5 * (times[1:] + times[:-1])
    left_edges = np.maximum(np.concatenate([[lo], midpoints]), lo)
    right_edges = np.minimum(np.concatenate([midpoints, [hi]]), hi)
    weights = np.clip(right_edges - left_edges, 0.0, None)

    # Equal split across duplicate timestamps: a run of k identical times
    # shares one Voronoi cell; each member gets cell/k.
    if times.size > 1:
        run_start = np.searchsorted(times, times, side="left")
        run_end = np.searchsorted(times, times, side="right")
        run_len = (run_end - run_start).astype(float)
        if np.any(run_len > 1):
            run_sums = np.bincount(run_start, weights=weights, minlength=times.size)
            weights = run_sums[run_start] / run_len
    return weights


def _legacy_unbiased_histogram(logs: LogStore, bins: HistogramBins) -> Histogram1D:
    """The old ``unbiased_histogram``: per-sample :func:`voronoi_weights`,
    rescaled to ``UNBIASED_MASS_PER_ACTION`` per action by their sum."""
    from repro.core.unbiased import UNBIASED_MASS_PER_ACTION

    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    order = np.argsort(logs.times, kind="mergesort")
    times = logs.times[order]
    weights = voronoi_weights(times)
    total = weights.sum()
    if total > 0:
        weights = weights * (UNBIASED_MASS_PER_ACTION * times.size / total)
    hist = Histogram1D(bins)
    hist.add(logs.latencies_ms[order], weights=weights)
    return hist


def _legacy_period_slots(
    times: np.ndarray, tz_offset_hours: Union[np.ndarray, float] = 0.0
) -> np.ndarray:
    """The old ``period`` branch of ``slot_of_times``: a Python loop."""
    hours = timeutil.hour_of_day(times, tz_offset_hours)
    period_index = {p: i for i, p in enumerate(ALL_DAY_PERIODS)}
    out = np.empty(hours.shape, dtype=np.int64)
    flat = out.ravel()
    for i, h in enumerate(hours.ravel()):
        flat[i] = period_index[DayPeriod.of_hour(float(h))]
    return out


def _legacy_slotted_counts(
    logs: LogStore,
    bins: HistogramBins,
    scheme: str = "hour-of-day",
    n_unbiased_samples: Optional[int] = None,
    rng: SeedLike = None,
    estimator: str = "sampling",
) -> SlottedCounts:
    """The old ``slotted_counts``: one masked pass over the data per slot.

    Deterministic outputs (biased counts, slot ids) are bit-identical to
    the shipped version; slot seconds are not recorded. The unbiased time fractions are
    not: this reference samples them with the old fixed-size 12-batch
    redraw loop, while the shipped version computes their exact limit, so
    the two agree only statistically.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot slot empty logs")
    generator = spawn_rng(rng)

    action_slots = slot_of_times(logs.times, scheme, logs.tz_offsets)
    slot_ids = np.unique(action_slots)
    n_slots = slot_ids.size

    c = np.zeros((n_slots, bins.count), dtype=float)
    bin_idx = bins.index_of(logs.latencies_ms)
    in_grid = bin_idx >= 0
    for row, slot in enumerate(slot_ids):
        mask = (action_slots == slot) & in_grid
        np.add.at(c[row], bin_idx[mask], 1.0)

    tz = float(np.median(logs.tz_offsets)) if len(logs) else 0.0
    u = np.zeros((n_slots, bins.count), dtype=float)
    if estimator == "voronoi":
        order = np.argsort(logs.times, kind="mergesort")
        sorted_times = logs.times[order]
        sorted_latencies = logs.latencies_ms[order]
        sorted_tz = logs.tz_offsets[order]
        weights = voronoi_weights(sorted_times)
        sample_slots = slot_of_times(sorted_times, scheme, sorted_tz)
        v_bin_idx = bins.index_of(sorted_latencies)
        v_in_grid = v_bin_idx >= 0
        for row, slot in enumerate(slot_ids):
            mask = (sample_slots == slot) & v_in_grid
            np.add.at(u[row], v_bin_idx[mask], weights[mask])
    else:
        target = n_unbiased_samples if n_unbiased_samples is not None else 2 * len(logs)
        accepted = 0
        for _ in range(12):
            draw = _legacy_draw_unbiased_samples(logs, n_samples=target, rng=generator)
            query_slots = slot_of_times(draw.query_times, scheme, tz)
            u_bin_idx = bins.index_of(draw.selected_latencies)
            u_in_grid = u_bin_idx >= 0
            for row, slot in enumerate(slot_ids):
                mask = (query_slots == slot) & u_in_grid
                accepted += int(mask.sum())
                np.add.at(u[row], u_bin_idx[mask], 1.0)
            if accepted >= target:
                break
    slot_totals = u.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(slot_totals > 0, u / slot_totals, 0.0)

    return SlottedCounts(
        scheme=scheme, slot_ids=slot_ids, biased_counts=c, time_fractions=f,
        bins=bins,
    )


def _legacy_corrected_histograms(logs, bins, alpha):
    """The old ``corrected_histograms``: rescans every raw action.

    This is what the per-reference loop in ``preference_curve`` used to
    call once *per reference slot* — the rescan the tensor contraction
    removed.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot build corrected histograms from empty logs")
    slot_index = {int(s): i for i, s in enumerate(alpha.slot_ids)}
    action_slots = slot_of_times(logs.times, alpha.scheme, logs.tz_offsets)
    weights = np.empty(len(logs), dtype=float)
    for slot, row in slot_index.items():
        a = alpha.alpha_by_slot[row]
        weights[action_slots == slot] = 1.0 / a if a > 0 else 0.0

    biased = Histogram1D(bins)
    biased.add(logs.latencies_ms, weights=weights)

    unbiased = Histogram1D(bins)
    pooled = alpha.time_fractions.sum(axis=0)
    unbiased.add_counts(pooled * 10_000.0)
    return biased, unbiased


def _legacy_alpha_from_counts(
    counts: SlottedCounts,
    reference_slot: Optional[int] = None,
    min_bin_count: float = 5.0,
    min_time_fraction: float = 1e-6,
    bin_average: str = "simple",
) -> AlphaEstimate:
    """The old ``alpha_from_counts``: three Python loops over slots."""
    slot_ids = counts.slot_ids
    n_slots = slot_ids.size
    slot_index = {int(s): i for i, s in enumerate(slot_ids)}
    c = counts.biased_counts
    f = counts.time_fractions
    bins = counts.bins
    if reference_slot is None:
        reference_slot = counts.busiest_slots(1)[0]
    ref_row = slot_index[int(reference_slot)]

    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(f > min_time_fraction, c / f, np.nan)
    ref_rate = rate[ref_row]

    alpha_matrix = np.full((n_slots, bins.count), np.nan)
    valid_ref = (~np.isnan(ref_rate)) & (c[ref_row] >= min_bin_count)
    for row in range(n_slots):
        valid = valid_ref & (~np.isnan(rate[row])) & (c[row] >= min_bin_count)
        alpha_matrix[row, valid] = rate[row, valid] / ref_rate[valid]

    alpha_by_slot = np.full(n_slots, np.nan)
    for row in range(n_slots):
        vals = alpha_matrix[row]
        ok = ~np.isnan(vals)
        if not np.any(ok):
            continue
        if bin_average == "simple":
            alpha_by_slot[row] = float(vals[ok].mean())
        else:
            weights = c[ref_row][ok]
            alpha_by_slot[row] = float(np.average(vals[ok], weights=weights))
    totals = c.sum(axis=1)
    ref_total = totals[ref_row]
    for row in range(n_slots):
        if np.isnan(alpha_by_slot[row]) and ref_total > 0:
            alpha_by_slot[row] = totals[row] / ref_total
    alpha_by_slot[ref_row] = 1.0

    return AlphaEstimate(
        scheme=counts.scheme,
        slot_ids=slot_ids,
        reference_slot=int(reference_slot),
        alpha_by_slot=alpha_by_slot,
        alpha_matrix=alpha_matrix,
        biased_counts=c,
        time_fractions=f,
        bins=bins,
    )
