"""Tests for the monotone (Fritsch-Carlson) cubic interpolator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.stats.interpolate import MonotoneCubicInterpolator


class TestBasics:
    def test_hits_anchors(self):
        interp = MonotoneCubicInterpolator([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        assert np.allclose(interp(np.array([0.0, 1.0, 2.0])), [0.0, 2.0, 3.0])

    def test_linear_data_stays_linear(self):
        interp = MonotoneCubicInterpolator([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        queries = np.linspace(0, 3, 31)
        assert np.allclose(interp(queries), queries + 1.0, atol=1e-9)

    def test_clamped_extrapolation(self):
        interp = MonotoneCubicInterpolator([1.0, 2.0], [5.0, 7.0])
        assert interp(np.array([-10.0]))[0] == 5.0
        assert interp(np.array([100.0]))[0] == 7.0

    def test_scalar_query(self):
        interp = MonotoneCubicInterpolator([0.0, 1.0], [0.0, 1.0])
        assert np.isclose(float(interp(0.5)), 0.5)

    def test_rejects_short_input(self):
        with pytest.raises(ConfigError):
            MonotoneCubicInterpolator([1.0], [1.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError):
            MonotoneCubicInterpolator([1.0, 0.5], [1.0, 2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            MonotoneCubicInterpolator([0.0, 1.0, 2.0], [1.0, 2.0])

    def test_matches_scipy_pchip_closely(self):
        pchip = pytest.importorskip("scipy.interpolate").PchipInterpolator
        xs = [0.0, 1.0, 2.5, 4.0, 7.0]
        ys = [1.0, 0.9, 0.5, 0.45, 0.44]
        ours = MonotoneCubicInterpolator(xs, ys)
        theirs = pchip(xs, ys)
        queries = np.linspace(0, 7, 100)
        # Different tangent rules allowed; curves should agree loosely.
        assert np.max(np.abs(ours(queries) - theirs(queries))) < 0.05


class TestMonotonicity:
    def test_no_overshoot_on_step(self):
        """Plain cubic splines overshoot step-like data; monotone must not."""
        interp = MonotoneCubicInterpolator(
            [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0]
        )
        queries = np.linspace(0, 3, 200)
        values = interp(queries)
        assert values.min() >= -1e-9
        assert values.max() <= 1.0 + 1e-9

    def test_derivative_zero_outside(self):
        interp = MonotoneCubicInterpolator([0.0, 1.0], [0.0, 1.0])
        assert interp.derivative(np.array([-1.0]))[0] == 0.0
        assert interp.derivative(np.array([5.0]))[0] == 0.0

    def test_derivative_sign_on_decreasing_data(self):
        interp = MonotoneCubicInterpolator(
            [0.0, 1.0, 2.0, 3.0], [4.0, 3.0, 1.0, 0.5]
        )
        queries = np.linspace(0.01, 2.99, 100)
        assert np.all(interp.derivative(queries) <= 1e-9)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=10))
@settings(max_examples=60, deadline=None)
def test_monotone_preserving_property(deltas):
    """Property: on decreasing anchors the interpolant is decreasing."""
    xs = np.arange(len(deltas) + 1, dtype=float)
    ys = 100.0 - np.concatenate([[0.0], np.cumsum(deltas)])
    interp = MonotoneCubicInterpolator(xs, ys)
    queries = np.linspace(xs[0], xs[-1], 150)
    values = interp(queries)
    assert np.all(np.diff(values) <= 1e-7)


def _plain_formula(interp, query):
    """The cubic Hermite sum as written out term by term, with ``(1 - t) ** 2``."""
    q = np.atleast_1d(np.asarray(query, dtype=float))
    q_clamped = np.clip(q, interp.x[0], interp.x[-1])
    idx = np.clip(np.searchsorted(interp.x, q_clamped, side="right") - 1, 0, interp.x.size - 2)
    x0 = interp.x[idx]
    x1 = interp.x[idx + 1]
    h = x1 - x0
    t = (q_clamped - x0) / h
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return (h00 * interp.y[idx] + h10 * h * interp.m[idx]
            + h01 * interp.y[idx + 1] + h11 * h * interp.m[idx + 1])


class TestBitwiseFormula:
    """``__call__`` shares its factors and accumulates in place; every value
    must stay bitwise the plain formula's (generated telemetry depends on it)."""

    CURVES = [
        ([100.0, 300.0, 500.0, 800.0, 1000.0, 1500.0, 2000.0, 3000.0],
         [1.1, 1.05, 1.0, 0.9, 0.85, 0.6, 0.4, 0.3]),
        ([0.0, 1.0], [2.0, -1.0]),
        ([-5.0, 0.0, 0.5, 7.0], [0.0, 3.0, 3.0, 1.0]),
    ]

    @pytest.mark.parametrize("xs, ys", CURVES)
    def test_random_clamped_and_anchor_queries(self, xs, ys):
        interp = MonotoneCubicInterpolator(xs, ys)
        rng = np.random.default_rng(7)
        span = xs[-1] - xs[0]
        anchors = np.asarray(xs)
        queries = np.concatenate([
            rng.uniform(xs[0], xs[-1], 100_000),                      # inside
            rng.uniform(xs[0] - 2 * span, xs[0], 1000),               # clamped low
            rng.uniform(xs[-1], xs[-1] + 2 * span, 1000),             # clamped high
            anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf),
        ])
        got = interp(queries)
        assert got.tobytes() == _plain_formula(interp, queries).tobytes()
        assert interp(float(queries[3])) == _plain_formula(interp, queries[3])[0]

    @settings(max_examples=60, deadline=None)
    @given(ys=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=9),
           queries=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=50))
    def test_any_curve(self, ys, queries):
        interp = MonotoneCubicInterpolator(np.arange(len(ys)) * 1.5 - 2.0, ys)
        q = np.asarray(queries)
        assert interp(q).tobytes() == _plain_formula(interp, q).tobytes()
