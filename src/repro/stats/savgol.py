"""Savitzky–Golay smoothing, implemented from first principles.

The paper (Section 2.3) smooths the noisy ``B/U`` preference ratio with a
Savitzky–Golay filter of window 101 and polynomial degree 3: each output bin
is the value at the bin of the least-squares polynomial fitted to the window
around it [Savitzky & Golay, 1964].

The ratio has NaN bins (unstable tails where ``U`` has too little mass) and
the array has edges, so :func:`savgol_smooth` fits every bin to only the
valid points of its window. It does so for all bins at once, as one masked
least-squares kernel:

1. offsets from each output bin are scaled to ``[-1, 1]``;
2. sliding-window sums of ``m·oᵖ`` (``p ≤ 2d``) and ``m·y·oᵖ`` (``p ≤ d``),
   over the zero-padded validity mask ``m`` and zero-filled values ``y``,
   give every bin's normal equations;
3. one batched ``np.linalg.solve`` of those ``(d+1)×(d+1)`` systems
   yields each fit's constant term, the smoothed value.

The same kernel covers the interior (where it equals the classic
convolution with fixed SG coefficients), the shrunken windows at the array
edges and the windows with NaN gaps. Where a window holds ``n`` valid points with
``n ≤ degree``, the bin is fitted with degree ``n − 1``. A bin whose own
input is NaN is filled only from a window that holds at least
``degree + 1`` valid points, some on each side of it; extrapolating past the
last valid point is left NaN.

Normal equations square the condition number of a fit. On valid bins and
on gap fills this loses nothing that matters: the kernel matches exact
rational least squares to about 1e-11 of the data's scale. A gap bridged only
by tight clusters of valid points near both ends of its window is the one
ill-conditioned case; there the fill can be off by a few parts per million
of the data's scale. :class:`repro.core.preference.PreferenceComputer` drops every gap
fill, since it keeps the curve only where the ratio itself was defined.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigError


@lru_cache(maxsize=64)
def _window_moments(window: int, degree: int) -> tuple:
    """The per-window constants of :func:`savgol_smooth`, cached read-only.

    Returns ``(powers, rhs_powers, sides)``: the offsets of a window scaled
    to ``[-1, 1]`` raised to the powers ``0..2·degree`` (one row per
    offset), the columns ``0..degree`` of that matrix, and the 0/1
    selectors of the offsets left and right of the centre.
    """
    half = window // 2
    # Scaling the offsets to [-1, 1] keeps the moments of similar size.
    offsets = np.arange(-half, half + 1) / max(half, 1)
    powers = offsets[:, None] ** np.arange(2 * degree + 1)
    rhs_powers = powers[:, np.arange(degree + 1)]
    sides = np.stack([offsets < 0, offsets > 0], axis=1).astype(float)
    for array in (powers, rhs_powers, sides):
        array.flags.writeable = False
    return powers, rhs_powers, sides


def savgol_smooth(values: np.ndarray, window: int = 101, degree: int = 3) -> np.ndarray:
    """Smooth ``values`` with a NaN-aware Savitzky–Golay filter.

    Each bin gets the value at that bin of the least-squares polynomial
    fitted to the valid points of its window (shrunk at the array edges).
    The degree drops to ``n_valid − 1`` where the window holds too few valid
    points. A bin whose input is NaN stays NaN unless its window holds at
    least ``degree + 1`` valid points with some on each side of the bin.

    ``values`` may also be a ``(k, n)`` stack whose rows share one NaN
    pattern (anything else is a :class:`ConfigError`): the normal equations
    depend only on that pattern, so they are built once and solved with
    ``k`` right-hand sides. Each row then equals its own 1-D call up to the
    last bits of the solve.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim not in (1, 2):
        raise ConfigError("savgol_smooth expects a 1-D array or a 2-D stack of rows")
    stack = np.atleast_2d(y)
    k, n = stack.shape
    if n == 0 or k == 0:
        return y.copy()
    window = max(min(window, n if n % 2 == 1 else n - 1), 1)
    # Not enough points for the requested degree anywhere: fit the best
    # polynomial the data supports.
    degree = min(degree, window - 1)
    half = window // 2

    valid = ~np.isnan(stack[0])
    if np.any(np.isnan(stack[1:]) != ~valid):
        raise ConfigError("the rows of a savgol_smooth stack must share one NaN pattern")
    mask = np.zeros(n + 2 * half)
    mask[half : half + n] = valid
    masked = np.zeros((k, n + 2 * half))
    masked[:, half : half + n] = np.where(valid, stack, 0.0)
    mask_windows = sliding_window_view(mask, window)

    powers, rhs_powers, sides = _window_moments(window, degree)
    terms = np.arange(degree + 1)
    moments = mask_windows @ powers
    rhs = sliding_window_view(masked, window, axis=-1) @ rhs_powers
    left, right = (mask_windows @ sides).T

    n_valid = moments[:, 0]
    gap_fill = ~valid & (n_valid >= degree + 1) & (left > 0) & (right > 0)
    # Degree reduction: a window with n_valid <= degree valid points is
    # fitted with degree n_valid - 1. The unused coefficients are decoupled
    # (identity rows, zero right-hand side), so one batched solve serves
    # every degree.
    used = terms < n_valid[:, None]
    normal = moments[:, np.add.outer(terms, terms)]
    normal *= used[:, :, None] & used[:, None, :]
    normal[:, terms, terms] += ~used
    rhs *= used
    # One (d+1)x(d+1) system per bin, with the k rows as its right-hand sides.
    solution = np.linalg.solve(normal, rhs.transpose(1, 2, 0))[:, 0, :].T
    out = np.where(valid | gap_fill, solution, np.nan)
    return out if y.ndim == 2 else out[0]


class SavitzkyGolay:
    """A reusable Savitzky–Golay smoother with fixed window and degree.

    >>> smoother = SavitzkyGolay(window=5, degree=2)
    >>> smoothed = smoother(np.arange(10.0) ** 2)
    """

    def __init__(self, window: int = 101, degree: int = 3) -> None:
        if window % 2 != 1 or window < 1:
            raise ConfigError(f"window must be odd and positive, got {window}")
        if degree < 0:
            raise ConfigError(f"degree must be non-negative, got {degree}")
        self.window = window
        self.degree = degree

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return savgol_smooth(values, self.window, self.degree)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SavitzkyGolay(window={self.window}, degree={self.degree})"
