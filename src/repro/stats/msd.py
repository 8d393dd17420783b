"""Mean-successive-difference statistics (von Neumann, 1941).

The paper's Figure 1 quantifies *locality* in the latency time series: if
latency levels persist over time, consecutive samples are similar and the
mean successive difference (MSD) is small relative to the overall spread,
measured as the mean absolute difference (MAD) between *all* pairs.

- a randomly shuffled series has MSD/MAD ≈ 1 (successive pairs are just
  random pairs),
- a perfectly sorted series has MSD/MAD ≈ 0 for large n (successive
  differences are tiny steps while random pairs span the range),
- the real OWA latency series lands far below 1 — low-latency periods are
  interspersed with high-latency periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmptyDataError
from repro.stats.rng import SeedLike, spawn_rng


def mean_successive_difference(values: np.ndarray) -> float:
    """Mean absolute difference between consecutive samples."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise EmptyDataError("MSD needs at least two samples")
    return float(np.abs(np.diff(v)).mean())


def mean_absolute_difference(
    values: np.ndarray,
    max_pairs: int = 2_000_000,
    rng: SeedLike = None,
) -> float:
    """Mean absolute difference between all (unordered) sample pairs.

    Exact when the number of pairs is small. For large inputs, the exact
    value is computed in O(n log n) from the sorted order: with sorted values
    ``s``, the sum over all pairs of |s_i - s_j| equals
    ``sum_i (2i - n + 1) * s_i``.

    ``max_pairs`` and ``rng`` are kept for API compatibility with a Monte
    Carlo fallback; the closed form makes them unnecessary.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise EmptyDataError("MAD needs at least two samples")
    s = np.sort(v)
    idx = np.arange(n, dtype=float)
    pair_sum = float(np.dot(2.0 * idx - (n - 1), s))
    return pair_sum / (n * (n - 1) / 2.0)


def msd_mad_ratio(values: np.ndarray) -> float:
    """The paper's locality statistic: MSD divided by MAD.

    A constant series has MAD = 0; it is perfectly predictable, so the
    ratio is defined as 0.
    """
    mad = mean_absolute_difference(values)
    if mad == 0.0:
        return 0.0
    return mean_successive_difference(values) / mad


@dataclass(frozen=True)
class LocalityComparison:
    """MSD/MAD of a series compared against its shuffled and sorted extremes."""

    actual: float
    shuffled: float
    sorted: float

    @property
    def locality_strength(self) -> float:
        """How far the actual ratio sits toward the sorted extreme, in [0, 1].

        0 means indistinguishable from random order, 1 means perfectly
        sorted. Clipped into [0, 1] for noisy small samples.
        """
        span = self.shuffled - self.sorted
        if span <= 0:
            return 0.0
        return float(np.clip((self.shuffled - self.actual) / span, 0.0, 1.0))


def compare_locality(values: np.ndarray, rng: SeedLike = None) -> LocalityComparison:
    """Compute MSD/MAD for the series, a random shuffle, and the sorted order.

    This reproduces the three bars of the paper's Figure 1.
    """
    generator = spawn_rng(rng)
    v = np.asarray(values, dtype=float)
    shuffled = v.copy()
    generator.shuffle(shuffled)
    return LocalityComparison(
        actual=msd_mad_ratio(v),
        shuffled=msd_mad_ratio(shuffled),
        sorted=msd_mad_ratio(np.sort(v)),
    )
