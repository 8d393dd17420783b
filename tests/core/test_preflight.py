"""Tests for the preflight diagnostic."""

import numpy as np
import pytest

from repro.errors import EmptyDataError
from repro.core.preflight import preflight
from repro.telemetry import LogStore


class TestPreflight:
    def test_good_workload_ready(self, owa_logs):
        report = preflight(owa_logs, rng=1)
        assert report.ready
        assert report.locality_strength > 0.3
        assert report.dynamic_range > 1.5

    def test_random_latency_not_applicable(self):
        """i.i.d. latency = no natural experiment; must say NOT READY."""
        rng = np.random.default_rng(0)
        logs = LogStore.from_arrays(
            times=np.sort(rng.uniform(0, 5 * 86400.0, 20_000)),
            latencies_ms=rng.lognormal(5.7, 0.5, 20_000),
            actions=["A"] * 20_000,
        )
        report = preflight(logs, rng=1)
        assert not report.ready
        assert any("not applicable" in r for r in report.recommendations)

    def test_narrow_range_warned(self):
        rng = np.random.default_rng(1)
        from repro.stats.ou_process import ar1_series

        # strong locality but tiny amplitude
        level = 300.0 * np.exp(0.02 * ar1_series(20_000, phi=0.999, rng=2))
        logs = LogStore.from_arrays(
            times=np.arange(20_000) * 20.0,
            latencies_ms=level,
            actions=["A"] * 20_000,
        )
        report = preflight(logs, rng=1)
        assert any("narrow range" in r for r in report.recommendations)

    def test_long_window_recommends_weekly_slots(self):
        rng = np.random.default_rng(3)
        from repro.stats.ou_process import ar1_series

        n = 30_000
        logs = LogStore.from_arrays(
            times=np.sort(rng.uniform(0, 20 * 86400.0, n)),
            latencies_ms=300.0 * np.exp(0.5 * ar1_series(n, phi=0.99, rng=4)),
            actions=["A"] * n,
        )
        report = preflight(logs, rng=1)
        assert any("hour-of-week" in r for r in report.recommendations)

    def test_blocking_quality(self):
        logs = LogStore.from_arrays(
            times=np.arange(50.0), latencies_ms=np.full(50, 300.0),
            actions=["A"] * 50,
        )
        report = preflight(logs, rng=1, min_rows=1000)
        assert not report.ready
        assert not report.quality.ok

    def test_rows_render(self, owa_logs):
        rows = preflight(owa_logs, rng=1).rows()
        assert rows[-1][0] == "verdict"

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            preflight(LogStore.from_records([]))
