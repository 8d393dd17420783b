"""Sampling primitives: time-based resampling and a categorical draw.

Section 2.2 of the paper approximates the unbiased latency distribution by
repeatedly (1) drawing a point in time uniformly at random over the
observation window and (2) selecting the latency sample *closest in time* to
that point, breaking ties uniformly at random. These two primitives live
here; :func:`repro.core.unbiased.draw_unbiased_samples` assembles them into
the paper's reference draw.

:class:`InverseCdf` is the telemetry generator's categorical draw: the
indices ``Generator.choice`` would return, from the same random stream.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import EmptyDataError
from repro.stats.rng import SeedLike, spawn_rng


def random_times(
    start: float,
    end: float,
    n: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Draw ``n`` times uniformly at random from ``[start, end)``."""
    if not end > start:
        raise EmptyDataError(f"empty time window [{start}, {end})")
    if n < 0:
        raise EmptyDataError(f"cannot draw a negative number of times ({n})")
    generator = spawn_rng(rng)
    return generator.uniform(start, end, size=n)


def nearest_time_sample(
    sample_times: np.ndarray,
    query_times: np.ndarray,
    rng: SeedLike = None,
    tie_tolerance: float = 0.0,
) -> np.ndarray:
    """Indices of the sample nearest in time to each query time.

    ``sample_times`` must be sorted ascending. Ties — several samples at the
    same distance within ``tie_tolerance`` — are broken uniformly at random,
    as the paper prescribes for multiple samples at the chosen time.

    Returns an integer index array into ``sample_times`` with one entry per
    query.
    """
    times = np.asarray(sample_times, dtype=float)
    queries = np.asarray(query_times, dtype=float)
    if times.size == 0:
        raise EmptyDataError("no samples to draw from")
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise EmptyDataError("sample_times must be sorted ascending")

    # For each query, the insertion point splits candidates into the sample
    # just before and just after; pick whichever is closer.
    right = np.searchsorted(times, queries, side="left")
    left = np.clip(right - 1, 0, times.size - 1)
    right = np.clip(right, 0, times.size - 1)
    dist_left = np.abs(queries - times[left])
    dist_right = np.abs(times[right] - queries)
    take_right = dist_right < dist_left
    nearest = np.where(take_right, right, left)

    generator = spawn_rng(rng)

    # Exact-distance ties between the left and right neighbour: coin flip.
    tied_lr = np.abs(dist_left - dist_right) <= tie_tolerance
    tied_lr &= left != right
    if np.any(tied_lr):
        flips = generator.random(int(tied_lr.sum())) < 0.5
        chosen = np.where(flips, left[tied_lr], right[tied_lr])
        nearest = nearest.copy()
        nearest[tied_lr] = chosen

    # Duplicate timestamps: several samples share the winning time; pick one
    # uniformly among the run of equal times. Runs depend only on the sorted
    # sample times, so one linear boundary pass replaces two per-query
    # searchsorted calls (the dominant cost at production query counts).
    if times.size > 1:
        change = np.empty(times.size, dtype=bool)
        change[0] = True
        np.not_equal(times[1:], times[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        lengths = np.diff(np.append(starts, times.size))
        rid = (np.cumsum(change) - 1)[nearest]
        run_start = starts[rid]
        run_len = lengths[rid]
    else:
        run_start = np.zeros(nearest.shape, dtype=np.int64)
        run_len = np.ones(nearest.shape, dtype=np.int64)
    multi = run_len > 1
    if np.any(multi):
        offsets = (generator.random(int(multi.sum())) * run_len[multi]).astype(np.int64)
        nearest = nearest.copy()
        nearest[multi] = run_start[multi] + offsets
    return nearest


def sorted_by_time(
    times: np.ndarray, *columns: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Return ``times`` and the given parallel columns sorted by time."""
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="mergesort")
    return (times[order],) + tuple(np.asarray(c)[order] for c in columns)


#: Buckets of :class:`InverseCdf`'s guide table. A power of two, so a
#: draw's bucket ``floor(u * size)`` and every bucket edge are exact.
GUIDE_TABLE_SIZE = 1 << 14


class InverseCdf:
    """``Generator.choice(len(p), size=m, p=p)`` without a binary search
    per draw.

    ``choice`` draws ``u = random(m)`` and returns
    ``cdf.searchsorted(u, side="right")``, with ``cdf = p.cumsum()`` divided
    by its last entry. :meth:`draw` consumes the same ``random(m)`` and
    returns the same indices. A guide table holds, for each of
    :data:`GUIDE_TABLE_SIZE` equal buckets of ``[0, 1)``, the number of CDF
    entries at or below the bucket's lower edge; a draw starts from its
    bucket's count and steps past the few entries between that edge and
    ``u``. ``p`` is checked as ``choice`` checks it, with its errors.
    """

    def __init__(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be 1-dimensional and non-empty")
        total = math.fsum(p)
        if math.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if np.any(p < 0):
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        edges = np.arange(GUIDE_TABLE_SIZE) / GUIDE_TABLE_SIZE
        self.guide = cdf.searchsorted(edges, side="right").astype(np.int64)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """``m`` indices, as ``rng.choice(len(p), size=m, p=p)`` returns them."""
        u = rng.random(m)
        idx = self.guide[(u * GUIDE_TABLE_SIZE).astype(np.int64)]
        # The last CDF entry is exactly 1 > u, so no index passes the end.
        pending = np.flatnonzero(self.cdf[idx] <= u)
        while pending.size:
            idx[pending] += 1
            pending = pending[self.cdf[idx[pending]] <= u[pending]]
        return idx
