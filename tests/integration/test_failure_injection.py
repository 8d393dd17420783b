"""Failure injection: pathological telemetry must fail loudly, not wrongly.

Production logs contain degenerate slices — constant latency, single
users, clock anomalies, error storms. The pipeline should either produce a
sane answer or raise a library error; silently wrong curves are the
failure mode these tests guard against.
"""

import numpy as np
import pytest

from repro.errors import (
    EmptyDataError,
    InsufficientDataError,
    ReproError,
)
from repro.core import AutoSens, AutoSensConfig
from repro.core.locality import density_latency_series, locality_report
from repro.core.quartiles import assign_quartiles
from repro.telemetry import ActionRecord, LogStore


def _logs(n, latency_fn, time_fn=lambda i: float(i * 30), success=True,
          user_fn=lambda i: f"u{i % 40}"):
    return LogStore.from_records([
        ActionRecord(time=time_fn(i), action="A", latency_ms=latency_fn(i),
                     user_id=user_fn(i), user_class="business",
                     success=success)
        for i in range(n)
    ])


@pytest.fixture()
def engine():
    return AutoSens(AutoSensConfig(seed=7, min_actions=100))


class TestDegenerateLatency:
    def test_constant_latency_flat_curve(self, engine):
        """All mass in one bin: the curve is defined only there, value 1."""
        logs = _logs(3000, lambda i: 250.0)
        curve = engine.preference_curve(logs)
        lo, hi = curve.valid_range()
        assert hi - lo <= 20.0  # one or two bins wide
        assert float(curve.at(0.5 * (lo + hi))) == pytest.approx(1.0, abs=0.01)

    def test_two_point_latency(self, engine):
        rng = np.random.default_rng(0)
        logs = _logs(4000, lambda i: 200.0 if rng.random() < 0.5 else 800.0)
        curve = engine.preference_curve(logs)
        lo, hi = curve.valid_range()
        assert np.isfinite(float(curve.at(lo)))
        assert np.isfinite(float(curve.at(hi)))

    def test_all_out_of_grid(self, engine):
        """Latencies beyond the grid leave nothing to analyze."""
        logs = _logs(2000, lambda i: 50_000.0)
        with pytest.raises(ReproError):
            engine.preference_curve(logs)

    def test_extreme_outliers_do_not_crash(self, engine):
        rng = np.random.default_rng(1)
        logs = _logs(3000, lambda i: float(rng.lognormal(5.7, 0.3))
                     if i % 100 else 2_999.0)
        curve = engine.preference_curve(logs)
        assert curve.n_actions == 3000


class TestDegenerateTiming:
    def test_all_actions_at_one_instant(self, engine):
        logs = _logs(2000, lambda i: 300.0 + (i % 7) * 10, time_fn=lambda i: 1000.0)
        # One time slot, zero duration: must not crash or divide by zero.
        curve = engine.preference_curve(logs)
        assert float(curve.at(*curve.valid_range()[:1])) > 0

    def test_unsorted_input(self, engine):
        rng = np.random.default_rng(2)
        times = rng.uniform(0, 5 * 86400.0, 5000)
        logs = LogStore.from_arrays(
            times=times,
            latencies_ms=rng.lognormal(5.7, 0.4, 5000),
            actions=["A"] * 5000,
        )
        curve = engine.preference_curve(logs)
        assert curve.n_actions == 5000

    def test_duplicate_timestamps_heavy(self, engine):
        """80 % of rows share timestamps (batched logging)."""
        rng = np.random.default_rng(3)
        base = np.repeat(np.arange(0, 86400.0, 60.0), 4)
        times = np.concatenate([base, rng.uniform(0, 86400.0, base.size // 4)])
        logs = LogStore.from_arrays(
            times=np.sort(times),
            latencies_ms=rng.lognormal(5.7, 0.4, times.size),
            actions=["A"] * times.size,
        )
        curve = engine.preference_curve(logs)
        assert curve.n_actions == times.size


class TestDegeneratePopulations:
    def test_single_user(self, engine):
        rng = np.random.default_rng(4)
        logs = _logs(3000, lambda i: float(rng.lognormal(5.7, 0.4)),
                     user_fn=lambda i: "only-user")
        curve = engine.preference_curve(logs)  # analysis itself works
        with pytest.raises(InsufficientDataError):
            assign_quartiles(logs)  # but quartiles need >= 4 users

    def test_error_storm(self, engine):
        """All actions failed: the success filter leaves nothing."""
        logs = _logs(2000, lambda i: 300.0, success=False)
        with pytest.raises(InsufficientDataError):
            engine.preference_curve(logs)

    def test_empty_logs_everywhere(self):
        empty = LogStore.from_records([])
        with pytest.raises(EmptyDataError):
            locality_report(empty)
        with pytest.raises(EmptyDataError):
            density_latency_series(empty)

    def test_tiny_slice_rejected(self, engine):
        logs = _logs(50, lambda i: 300.0)
        with pytest.raises(InsufficientDataError):
            engine.preference_curve(logs)


class TestNumericalEdges:
    def test_zero_latency_rows(self, engine):
        logs = _logs(2000, lambda i: 0.0 if i % 5 == 0 else 300.0)
        curve = engine.preference_curve(logs)
        assert curve.biased_counts[0] > 0  # the zero bin is real data

    def test_voronoi_on_degenerate_times(self):
        from repro.core.unbiased import UNBIASED_MASS_PER_ACTION, unbiased_histogram
        from repro.stats.histogram import HistogramBins

        # Five samples at one instant, one latency bin each: the window is
        # padded to one second and split equally among them.
        logs = LogStore.from_arrays(np.zeros(5), 10.0 * np.arange(5) + 5.0, ["a"] * 5)
        u = unbiased_histogram(logs, HistogramBins(0.0, 50.0, 10.0))
        assert np.allclose(u.counts, UNBIASED_MASS_PER_ACTION)
