"""The unbiased latency distribution ``U`` (paper Section 2.2).

``U`` answers: *what would the latency have been at a time chosen without
regard to user behaviour?* There are no direct measurements at such times,
so the paper approximates ``U`` by repeatedly:

1. drawing a point in time uniformly at random over the observation window,
2. taking the latency sample (i.e. logged action) closest in time,
   breaking ties between equidistant/duplicate-time samples at random.

Because step 2 reuses *observed* samples, ``U`` is an approximation; it is
good wherever actions are dense relative to the latency level's correlation
time. The draw's expectation has a closed form: each sample is selected
with probability equal to its Voronoi cell length (:func:`voronoi_weights`)
over the window. The engine computes that limit exactly
(:func:`unbiased_histogram` here, and the slot-clipped per-slot version in
:func:`repro.core.alpha.slotted_counts`); :func:`draw_unbiased_samples` is
the paper's draw itself, kept as the plain reference for Figure 3(a) and
the convergence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import EmptyDataError
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.stats.rng import SeedLike, spawn_rng
from repro.stats.sampling import nearest_time_sample, random_times
from repro.telemetry.log_store import LogStore

#: Default number of random time draws, as a multiple of the sample count.
DEFAULT_OVERSAMPLE = 2.0

#: Total mass of :func:`unbiased_histogram`, per action. Three draws per
#: action is the sample size ``min_unbiased_count`` is calibrated against.
UNBIASED_MASS_PER_ACTION = 3.0


@dataclass(frozen=True)
class UnbiasedDraw:
    """The raw materials of one unbiased-distribution estimate.

    Kept for the Figure 3(a) illustration: the random query times and the
    indices of the latency samples they selected.
    """

    query_times: np.ndarray
    selected_indices: np.ndarray
    sample_times: np.ndarray
    sample_latencies: np.ndarray

    @property
    def selected_latencies(self) -> np.ndarray:
        return self.sample_latencies[self.selected_indices]


def draw_unbiased_samples(
    logs: LogStore,
    n_samples: Optional[int] = None,
    rng: SeedLike = None,
    time_range: Optional[Tuple[float, float]] = None,
) -> UnbiasedDraw:
    """Run the random-time / nearest-sample procedure and keep the pieces."""
    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    order = np.argsort(logs.times, kind="mergesort")
    times = logs.times[order]
    generator = spawn_rng(rng)
    if time_range is None:
        lo, hi = float(times[0]), float(times[-1])
        if hi <= lo:  # all samples at one instant
            hi = lo + 1.0
    else:
        lo, hi = time_range
    if n_samples is None:
        n_samples = int(np.ceil(DEFAULT_OVERSAMPLE * times.size))
    queries = random_times(lo, hi, n_samples, rng=generator)
    return UnbiasedDraw(
        query_times=queries,
        selected_indices=nearest_time_sample(times, queries, rng=generator),
        sample_times=times,
        sample_latencies=logs.latencies_ms[order],
    )


def unbiased_histogram(
    logs: LogStore,
    bins: HistogramBins,
    time_range: Optional[Tuple[float, float]] = None,
) -> Histogram1D:
    """Estimate ``U`` as a histogram over the shared latency bin grid.

    Each sample is weighted by its Voronoi cell length — the paper's draw
    in the limit of infinitely many queries, with no sampling noise. The
    weights are rescaled to a total mass of ``UNBIASED_MASS_PER_ACTION``
    per action, so the stability threshold (``min_unbiased_count``) means
    what it means for a draw of that size.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    order = np.argsort(logs.times, kind="mergesort")
    times = logs.times[order]
    weights = voronoi_weights(times, time_range=time_range)
    total = weights.sum()
    if total > 0:
        weights = weights * (UNBIASED_MASS_PER_ACTION * times.size / total)
    hist = Histogram1D(bins)
    hist.add(logs.latencies_ms[order], weights=weights)
    return hist


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
