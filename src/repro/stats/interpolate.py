"""Monotone piecewise-cubic (PCHIP / Fritsch–Carlson) interpolation.

Ground-truth preference curves in the workload simulator are defined by a
handful of anchor points taken straight from the paper's figures (e.g. the
SelectMail NLP values at 500/1000/1500/2000 ms). A monotone cubic through
those anchors gives a smooth, shape-preserving curve with no spurious
oscillation — essential, because a preference that wiggles above 1.0 between
anchors would corrupt the thinning acceptance probabilities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError


class MonotoneCubicInterpolator:
    """Fritsch–Carlson monotone cubic Hermite interpolation.

    Values outside the anchor range are clamped to the end anchors (flat
    extrapolation), which matches the "preference saturates at the tails"
    behaviour we want for latency preference curves.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ConfigError("xs and ys must be 1-D arrays of equal length")
        if x.size < 2:
            raise ConfigError("need at least two anchor points")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("xs must be strictly increasing")
        self.x = x
        self.y = y
        self.m = self._tangents(x, y)

    @staticmethod
    def _tangents(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        h = np.diff(x)
        delta = np.diff(y) / h
        n = x.size
        m = np.empty(n, dtype=float)
        m[0] = delta[0]
        m[-1] = delta[-1]
        for i in range(1, n - 1):
            if delta[i - 1] * delta[i] <= 0:
                m[i] = 0.0
            else:
                # Weighted harmonic mean (Fritsch–Butland), guarantees
                # monotonicity without a separate limiting pass.
                w1 = 2 * h[i] + h[i - 1]
                w2 = h[i] + 2 * h[i - 1]
                m[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])
        # End tangents: one-sided with monotonicity clamp.
        for edge, d in ((0, delta[0]), (n - 1, delta[-1])):
            if d == 0:
                m[edge] = 0.0
            elif np.sign(m[edge]) != np.sign(d):
                m[edge] = 0.0
            elif abs(m[edge]) > 3 * abs(d):
                m[edge] = 3 * d
        return m

    def __call__(self, query: np.ndarray) -> np.ndarray:
        """The cubic Hermite sum ``h00·y0 + h10·h·m0 + h01·y1 + h11·h·m1``.

        Each shared factor (``1 - t``, ``t²``, ``2t``, ``idx + 1``) is
        computed once and the sum is accumulated in place, in the same
        left-to-right order, so every value is bitwise the plain formula's
        (``(1 - t) ** 2`` is ``u * u`` in NumPy), and one binary search over
        the interior anchors finds the interval.
        """
        q = np.atleast_1d(np.asarray(query, dtype=float))
        t = np.clip(q, self.x[0], self.x[-1])
        # The interval of each clamped query: the interior anchors at or
        # below it (NaN sorts last, into the last interval).
        idx = np.searchsorted(self.x[1:-1], t, side="right")
        nxt = idx + 1
        x0 = self.x[idx]
        h = self.x[nxt] - x0
        t -= x0
        t /= h
        u = 1 - t
        uu = u * u
        tt = t * t
        two_t = 2 * t
        out = (1 + two_t) * uu * self.y[idx]
        out += t * uu * h * self.m[idx]
        out += tt * (3 - two_t) * self.y[nxt]
        out += tt * (t - 1) * h * self.m[nxt]
        if np.isscalar(query) or np.asarray(query).ndim == 0:
            return out[0]
        return out

    def derivative(self, query: np.ndarray) -> np.ndarray:
        """First derivative of the interpolant (flat = 0 outside the range)."""
        q = np.atleast_1d(np.asarray(query, dtype=float))
        inside = (q >= self.x[0]) & (q <= self.x[-1])
        q_clamped = np.clip(q, self.x[0], self.x[-1])
        idx = np.clip(np.searchsorted(self.x, q_clamped, side="right") - 1, 0, self.x.size - 2)
        x0 = self.x[idx]
        x1 = self.x[idx + 1]
        h = x1 - x0
        t = (q_clamped - x0) / h
        dh00 = (6 * t * t - 6 * t) / h
        dh10 = 3 * t * t - 4 * t + 1
        dh01 = (6 * t - 6 * t * t) / h
        dh11 = 3 * t * t - 2 * t
        out = (
            dh00 * self.y[idx]
            + dh10 * self.m[idx]
            + dh01 * self.y[idx + 1]
            + dh11 * self.m[idx + 1]
        )
        out[~inside] = 0.0
        if np.isscalar(query) or np.asarray(query).ndim == 0:
            return out[0]
        return out
