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
with probability equal to its Voronoi cell length over the window. One
kernel, :func:`_voronoi_tensor`, computes that limit exactly for every
path: :func:`unbiased_histogram` calls it with one row and no cuts,
:func:`repro.core.alpha.slotted_counts` with its slot boundaries as cuts
and one row per slot, and Figure 3 with each day's business-hours edges as
cuts (:func:`repro.analysis.fig_methodology.business_hours_unbiased`). :func:`draw_unbiased_samples` is the paper's draw
itself, kept as the plain reference for Figure 3(a) and the convergence
tests.
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
) -> UnbiasedDraw:
    """Run the random-time / nearest-sample procedure and keep the pieces."""
    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    times, latencies = _in_time_order(logs.times, logs.latencies_ms)
    generator = spawn_rng(rng)
    lo, hi = _window(times)
    if n_samples is None:
        n_samples = int(np.ceil(DEFAULT_OVERSAMPLE * times.size))
    queries = random_times(lo, hi, n_samples, rng=generator)
    return UnbiasedDraw(
        query_times=queries,
        selected_indices=nearest_time_sample(times, queries, rng=generator),
        sample_times=times,
        sample_latencies=latencies,
    )


def unbiased_histogram(logs: LogStore, bins: HistogramBins) -> Histogram1D:
    """Estimate ``U`` as a histogram over the shared latency bin grid.

    Each sample is weighted by its Voronoi cell length — the paper's draw
    in the limit of infinitely many queries, with no sampling noise: the
    one-row, uncut case of :func:`_voronoi_tensor`. The weights are
    rescaled to a total mass of ``UNBIASED_MASS_PER_ACTION`` per action
    over the ``[first, last]`` window, so the stability threshold
    (``min_unbiased_count``) means what it means for a draw of that size.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    times, latencies = _in_time_order(logs.times, logs.latencies_ms)
    lo, hi = _window(times)
    u = _voronoi_tensor(times, bins.index_of(latencies),
                        np.array([lo, hi]), np.zeros(1, dtype=np.intp), (1, bins.count))
    hist = Histogram1D(bins)
    hist.add_counts(u[0] * (UNBIASED_MASS_PER_ACTION * times.size / (hi - lo)))
    return hist


def _in_time_order(times: np.ndarray, *columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``times`` and the row-aligned ``columns`` in stable time order.

    A slice of a time-sorted store is already in order (``where`` and
    ``filter`` keep row order), and a stable sort of sorted keys is the
    identity, so one O(n) check replaces the sort and its gathers there.
    NaN times fail the check and take the sort.
    """
    if np.all(times[1:] >= times[:-1]):
        return (times, *columns)
    order = np.argsort(times, kind="mergesort")
    return (times[order], *(column[order] for column in columns))


def _window(sorted_times: np.ndarray) -> Tuple[float, float]:
    """The draw's query window, ``[first, last]`` sample time.

    Samples all at one instant still need a window to query: one second.
    """
    lo, hi = float(sorted_times[0]), float(sorted_times[-1])
    return lo, (hi if hi > lo else lo + 1.0)


def _voronoi_tensor(
    sorted_times: np.ndarray,
    sample_bin_idx: np.ndarray,
    bounds: np.ndarray,
    stretch_rows: np.ndarray,
    shape: Tuple[int, int],
) -> np.ndarray:
    """The ``shape = (n_rows, n_bins)`` expectation of the paper's unbiased
    draw, in seconds of query time.

    A uniform query over the window ``[bounds[0], bounds[-1]]`` selects the
    sample whose Voronoi cell — the stretch of time nearer to it than to any
    other sample — contains it. The inner ``bounds`` cut the window into
    stretches; a query in stretch ``i`` lands in row ``stretch_rows[i]``,
    and the draw rejects it when that row is -1. So each cell is cut at
    every bound, and each piece adds its length to (row of its stretch, bin
    of the sample). Samples sharing a timestamp split their cell equally
    (the draw's uniform tie-break). Samples off the bin grid (bin -1) are
    dropped, as the draw rejects those queries too.
    """
    n = sorted_times.size
    cuts = bounds[1:-1]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_times[1:], sorted_times[:-1], out=new_run[1:])
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, n))
    distinct = sorted_times[run_start]
    edges = np.concatenate(([bounds[0]], 0.5 * (distinct[1:] + distinct[:-1]), [bounds[-1]]))

    # Merge the cuts into the cell edges. Every point of the merged axis
    # opens a piece: it belongs to the cell of the last edge at or before
    # it, and to the stretch after the last cut at or before it.
    is_cut = np.zeros(edges.size + cuts.size, dtype=bool)
    is_cut[np.searchsorted(edges, cuts, side="right") + np.arange(cuts.size)] = True
    points = np.empty(is_cut.size)
    points[is_cut] = cuts
    points[~is_cut] = edges
    lengths = np.diff(points)
    owner = (np.cumsum(~is_cut) - 1)[:-1]
    rows = stretch_rows[np.cumsum(is_cut)[:-1]]

    if distinct.size == n:
        sample = owner
    else:  # spread each piece equally over the samples of its run
        reps = run_len[owner]
        first = np.cumsum(reps) - reps
        sample = np.repeat(run_start[owner] - first, reps) + np.arange(int(reps.sum()))
        lengths = np.repeat(lengths / reps, reps)
        rows = np.repeat(rows, reps)
    bin_idx = sample_bin_idx[sample]
    keep = (rows >= 0) & (bin_idx >= 0)
    n_rows, n_bins = shape
    u = np.bincount(rows[keep] * n_bins + bin_idx[keep], weights=lengths[keep],
                    minlength=n_rows * n_bins)
    return u.reshape(n_rows, n_bins)
