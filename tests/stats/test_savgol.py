"""Tests for the from-scratch Savitzky-Golay filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.stats.savgol import (
    SavitzkyGolay,
    _window_moments,
    savgol_smooth,
)


def reference_smooth(values, window=101, degree=3):
    """The former per-bin least-squares filter, kept as the reference.

    Every bin is fitted with ``np.linalg.lstsq`` to the valid points of its
    (edge-shrunk) window, with degree ``min(degree, n_valid - 1)``. A bin
    is NaN when its window has no valid point, or when its own input is NaN
    and its window has fewer than ``degree + 1`` valid points; unlike
    :func:`savgol_smooth` it also extrapolates NaN bins from one side.
    A 2-D stack is smoothed row by row.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim == 2:
        return np.array([reference_smooth(row, window, degree) for row in y])
    n = y.size
    if n == 0:
        return y.copy()
    window = _effective_window(window, n)
    degree = min(degree, window - 1)
    half = window // 2
    out = np.empty_like(y)
    positions = np.arange(n, dtype=float)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        valid = ~np.isnan(y[lo:hi])
        n_valid = int(valid.sum())
        if n_valid == 0 or (np.isnan(y[i]) and n_valid < degree + 1):
            out[i] = np.nan
            continue
        vander = np.vander(positions[lo:hi][valid] - i,
                           min(degree, n_valid - 1) + 1, increasing=True)
        solution, *_ = np.linalg.lstsq(vander, y[lo:hi][valid], rcond=None)
        out[i] = solution[0]
    return out


def _effective_window(window, n):
    return max(min(window, n if n % 2 == 1 else n - 1), 1)


def _one_sided(values, window):
    """NaN bins whose window lacks valid points on one side of them."""
    y = np.asarray(values, dtype=float)
    half = _effective_window(window, y.size) // 2
    valid = ~np.isnan(y)
    return np.array([
        not valid[i]
        and not (valid[max(0, i - half):i].any() and valid[i + 1:i + half + 1].any())
        for i in range(y.size)
    ], dtype=bool)


def _assert_stack_rows_match(rng, y, window, degree, k=3):
    """A (k, n) stack sharing ``y``'s NaN pattern smooths each row as its
    own 1-D call does, to 1e-12 of the data's scale."""
    stack = np.vstack([y] + [y * rng.normal(1.0, 0.2) + rng.normal(0.0, 0.1, y.size)
                             for _ in range(k - 1)])
    stacked = savgol_smooth(stack, window=window, degree=degree)
    assert stacked.shape == stack.shape
    scale = max(1.0, np.nanmax(np.abs(stack))) if (~np.isnan(y)).any() else 1.0
    for row, smoothed in zip(stack, stacked):
        single = savgol_smooth(row, window=window, degree=degree)
        assert np.array_equal(np.isnan(smoothed), np.isnan(single))
        np.testing.assert_allclose(smoothed, single, rtol=0, atol=1e-12 * scale)


def _random_curve(rng, n, gap_share, head, tail):
    """A noisy random-walk ratio with scattered NaN gaps and NaN ends."""
    y = 1.0 + np.cumsum(rng.normal(0.0, 0.05, n))
    y[rng.random(n) < gap_share] = np.nan
    y[:head] = np.nan
    y[n - tail:] = np.nan
    return y


class TestSmooth:
    def test_exact_on_polynomial(self):
        """SG with degree d reproduces any polynomial of degree <= d exactly."""
        x = np.arange(50, dtype=float)
        y = 2.0 + 3.0 * x - 0.5 * x**2 + 0.01 * x**3
        smoothed = savgol_smooth(y, window=11, degree=3)
        assert np.allclose(smoothed, y, atol=1e-6)

    def test_edges_handled(self):
        y = np.arange(20, dtype=float) ** 2
        smoothed = savgol_smooth(y, window=7, degree=2)
        assert np.allclose(smoothed, y, atol=1e-6)  # includes first/last points

    def test_matches_scipy_interior(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        ours = savgol_smooth(y, window=21, degree=3)
        theirs = scipy_signal.savgol_filter(y, 21, 3)
        assert np.allclose(ours[10:-10], theirs[10:-10], atol=1e-9)

    def test_reduces_noise(self):
        rng = np.random.default_rng(1)
        y = np.sin(np.linspace(0, 3, 400)) + rng.normal(0, 0.3, 400)
        smoothed = savgol_smooth(y, window=31, degree=3)
        truth = np.sin(np.linspace(0, 3, 400))
        assert np.abs(smoothed - truth).mean() < np.abs(y - truth).mean()

    def test_nan_gap_filled_from_neighbours(self):
        y = np.arange(40, dtype=float)
        y[20] = np.nan
        smoothed = savgol_smooth(y, window=9, degree=2)
        assert np.isclose(smoothed[20], 20.0, atol=1e-6)

    def test_nan_tail_past_last_valid_stays_nan(self):
        """No extrapolation past the last (or before the first) valid bin."""
        y = np.arange(40, dtype=float)
        y[:5] = np.nan
        y[30:] = np.nan
        smoothed = savgol_smooth(y, window=9, degree=2)
        assert np.isnan(smoothed[:5]).all()
        assert np.isnan(smoothed[30:]).all()
        assert np.allclose(smoothed[5:30], y[5:30], atol=1e-9)

    def test_all_nan_window_stays_nan(self):
        y = np.full(30, np.nan)
        y[0] = 1.0
        smoothed = savgol_smooth(y, window=5, degree=2)
        assert np.isnan(smoothed[20])

    def test_short_input_degrades_gracefully(self):
        y = np.array([1.0, 2.0, 3.0])
        smoothed = savgol_smooth(y, window=101, degree=3)
        assert np.allclose(smoothed, y, atol=1e-8)

    def test_cached_window_constants_are_read_only(self):
        constants = _window_moments(101, 3)
        for array in constants:
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert _window_moments(101, 3) is constants

    def test_empty_input(self):
        assert savgol_smooth(np.array([]), 5, 2).size == 0
        assert savgol_smooth(np.empty((2, 0)), 5, 2).shape == (2, 0)
        assert savgol_smooth(np.empty((0, 7)), 5, 2).shape == (0, 7)

    def test_rejects_2d(self):
        """A 2-D input is accepted only as a stack of rows that share one
        NaN pattern; other shapes are rejected too."""
        stack = np.ones((3, 9))
        stack[1, 4] = np.nan
        with pytest.raises(ConfigError):
            savgol_smooth(stack, 3, 1)
        stack[[0, 2], 4] = np.nan
        assert savgol_smooth(stack, 3, 1).shape == (3, 9)
        stack[2, 0] = np.nan
        with pytest.raises(ConfigError):
            savgol_smooth(stack, 3, 1)
        with pytest.raises(ConfigError):
            savgol_smooth(np.ones((2, 3, 3)), 3, 1)

    def test_callable_wrapper(self):
        smoother = SavitzkyGolay(window=5, degree=2)
        y = np.arange(10, dtype=float)
        assert np.allclose(smoother(y), y, atol=1e-8)

    def test_wrapper_validates(self):
        with pytest.raises(ConfigError):
            SavitzkyGolay(window=4, degree=2)


@given(
    coeffs=st.tuples(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-0.05, max_value=0.05),
    ),
    window=st.sampled_from([5, 9, 15, 21]),
)
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness_property(coeffs, window):
    """Property: degree-3 SG is an identity on cubics, any window size."""
    a, b, c, d = coeffs
    x = np.linspace(0, 3, 60)
    y = a + b * x + c * x**2 + d * x**3
    smoothed = savgol_smooth(y, window=window, degree=3)
    assert np.allclose(smoothed, y, atol=1e-6 * max(1.0, np.abs(y).max()))


@given(
    coeffs=st.tuples(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-0.05, max_value=0.05),
    ),
    window=st.sampled_from([5, 9, 15, 21, 101]),
    mask=st.lists(st.booleans(), min_size=60, max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_cubic_reproduced_under_nan_mask(coeffs, window, mask):
    """Property: under any NaN mask every valid bin of a cubic is kept."""
    a, b, c, d = coeffs
    x = np.linspace(0, 3, 60)
    y = a + b * x + c * x**2 + d * x**3
    y[np.asarray(mask)] = np.nan
    valid = ~np.isnan(y)
    smoothed = savgol_smooth(y, window=window, degree=3)
    assert not np.isnan(smoothed[valid]).any()
    scale = max(1.0, np.abs(y[valid]).max()) if valid.any() else 1.0
    assert np.allclose(smoothed[valid], y[valid], atol=1e-6 * scale)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=400),
    window=st.integers(min_value=1, max_value=50).map(lambda k: 2 * k + 1),
    degree=st.integers(min_value=0, max_value=3),
    gap_share=st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.9]),
    ends=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)
@settings(max_examples=150, deadline=None)
def test_matches_reference_lstsq(seed, n, window, degree, gap_share, ends):
    """The masked-moment kernel equals the per-bin lstsq filter.

    NaN patterns are identical, except that one-sided extrapolations of NaN
    bins are NaN by contract. Every other bin agrees to 1e-9 of the data's
    scale.
    """
    rng = np.random.default_rng(seed)
    y = _random_curve(rng, n, gap_share, int(ends[0] * n), int(ends[1] * n))
    ours = savgol_smooth(y, window=window, degree=degree)
    theirs = reference_smooth(y, window=window, degree=degree)
    expected_nan = np.isnan(theirs) | _one_sided(y, window)
    assert np.array_equal(np.isnan(ours), expected_nan)
    if (~expected_nan).any():
        scale = np.nanmax(np.abs(y))
        np.testing.assert_allclose(ours[~expected_nan], theirs[~expected_nan],
                                   rtol=1e-9, atol=1e-9 * scale)
    _assert_stack_rows_match(rng, y, window, degree)


def test_clustered_gaps_keep_valid_bins_exact():
    """Tight clusters of valid points far apart make gap fills
    ill-conditioned for the normal equations. Valid bins still match the
    reference to 1e-9; the fills themselves stay within 1e-5 of the data's
    scale (the module docstring's documented limit).
    """
    rng = np.random.default_rng(5)
    for _ in range(200):
        y = np.full(301, np.nan)
        for start in rng.integers(0, 301, size=rng.integers(1, 6)):
            cluster = y[start:start + rng.integers(1, 8)]
            cluster[:] = rng.normal(50.0, 10.0, cluster.size)
        window = int(rng.integers(1, 51)) * 2 + 1
        ours = savgol_smooth(y, window=window, degree=3)
        theirs = reference_smooth(y, window=window, degree=3)
        assert np.array_equal(np.isnan(ours),
                              np.isnan(theirs) | _one_sided(y, window))
        scale = np.nanmax(np.abs(y))
        valid = ~np.isnan(y)
        np.testing.assert_allclose(ours[valid], theirs[valid],
                                   rtol=1e-9, atol=1e-9 * scale)
        fills = ~valid & ~np.isnan(ours)
        assert np.all(np.abs(ours[fills] - theirs[fills]) <= 1e-5 * scale)
        _assert_stack_rows_match(rng, y, window, 3)
