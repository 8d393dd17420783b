"""Tests for locality diagnostics and quartile assignment."""

import numpy as np
import pytest

from repro.errors import EmptyDataError, InsufficientDataError, PrivacyError
from repro.core.locality import density_latency_series, locality_report
from repro.core.quartiles import assign_quartiles, quartile_slices
from repro.telemetry import ActionRecord, LogStore


class TestLocalityReport:
    def test_on_owa_logs(self, owa_logs, engine):
        comparison = locality_report(owa_logs, rng=1)
        assert comparison.actual < 0.8
        assert 0.9 < comparison.shuffled < 1.1
        assert comparison.sorted < 0.01

    def test_too_few_rows(self):
        logs = LogStore.from_records([
            ActionRecord(time=0.0, action="a", latency_ms=1.0),
        ])
        with pytest.raises(EmptyDataError):
            locality_report(logs)


class TestDensitySeries:
    def test_window_counts_sum(self, owa_logs):
        series = density_latency_series(owa_logs, window_seconds=60.0)
        assert series.action_counts.sum() == len(owa_logs)

    def test_empty_windows_nan_latency(self):
        logs = LogStore.from_arrays(
            times=[0.0, 300.0], latencies_ms=[100.0, 200.0], actions=["a", "a"]
        )
        series = density_latency_series(logs, window_seconds=60.0)
        assert series.action_counts[2] == 0
        assert np.isnan(series.mean_latency_ms[2])

    def test_normalized_bounds(self, owa_logs):
        series = density_latency_series(owa_logs)
        counts, lats = series.normalized()
        assert np.nanmin(counts) >= 0.0 and np.nanmax(counts) <= 1.0
        assert np.nanmin(lats) >= 0.0 and np.nanmax(lats) <= 1.0

    def test_detrended_negative_on_owa(self, owa_logs):
        series = density_latency_series(owa_logs)
        assert series.detrended_correlation() < -0.05

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            density_latency_series(LogStore.from_records([]))

    def test_correlation_needs_windows(self):
        logs = LogStore.from_arrays(times=[0.0], latencies_ms=[1.0], actions=["a"])
        series = density_latency_series(logs)
        with pytest.raises(InsufficientDataError):
            series.pearson_correlation


def _user_logs(medians, actions_each=9):
    """One user per median latency value."""
    records = []
    for i, median in enumerate(medians):
        for j in range(actions_each):
            records.append(ActionRecord(
                time=float(i * 1000 + j), action="a",
                latency_ms=float(median + (j - actions_each // 2)),
                user_id=f"u{i}",
            ))
    return LogStore.from_records(records)


class TestQuartiles:
    def test_equal_population_split(self):
        logs = _user_logs(np.linspace(100, 800, 40))
        assignment = assign_quartiles(logs)
        counts = np.bincount(assignment.quartile, minlength=4)
        assert counts.tolist() == [10, 10, 10, 10]

    def test_ordering_by_median(self):
        logs = _user_logs([100, 200, 300, 400])
        assignment = assign_quartiles(logs)
        order = assignment.quartile[np.argsort(assignment.medians_ms)]
        assert order.tolist() == sorted(order.tolist())

    def test_min_actions_filter(self):
        records = [ActionRecord(time=0.0, action="a", latency_ms=50.0,
                                user_id="rare")]
        logs = _user_logs([100, 200, 300, 400]).concat(
            LogStore.from_records(records)
        )
        assignment = assign_quartiles(logs, min_actions_per_user=5)
        assert assignment.user_codes.size == 4

    def test_too_few_users(self):
        logs = _user_logs([100, 200])
        with pytest.raises(InsufficientDataError):
            assign_quartiles(logs)

    def test_slices_partition_logs(self):
        logs = _user_logs(np.linspace(100, 800, 16))
        slices = quartile_slices(logs)
        assert sum(len(s) for s in slices.values()) == len(logs)
        assert set(slices) == {"Q1", "Q2", "Q3", "Q4"}

    def test_slices_equal_per_quartile_where(self, owa_logs):
        """The per-row lookup selects what ``where(user_codes=...)`` does."""
        assignment = assign_quartiles(owa_logs, min_actions_per_user=20)
        slices = quartile_slices(owa_logs, assignment)
        for q, name in enumerate(("Q1", "Q2", "Q3", "Q4")):
            expected = owa_logs.where(user_codes=assignment.users_in(q))
            assert np.array_equal(slices[name].times, expected.times)
            assert np.array_equal(slices[name].user_codes, expected.user_codes)

    def test_q1_is_fastest(self):
        logs = _user_logs(np.linspace(100, 800, 16))
        slices = quartile_slices(logs)
        assert slices["Q1"].latencies_ms.mean() < slices["Q4"].latencies_ms.mean()

    def test_privacy_guard(self):
        logs = _user_logs(np.linspace(100, 800, 8))
        with pytest.raises(PrivacyError):
            quartile_slices(logs, min_users=50)

    def test_on_conditioning_workload(self, conditioning_result):
        logs = conditioning_result.logs
        assignment = assign_quartiles(logs, min_actions_per_user=5)
        slices = quartile_slices(logs, assignment)
        assert all(len(s) > 0 for s in slices.values())
        # per-user latency multipliers should rise across quartiles; user
        # codes index user_vocab, which is exactly the population order
        population = conditioning_result.population
        q1_codes = assignment.users_in(0)
        q4_codes = assignment.users_in(3)
        mult_q1 = population.latency_multipliers[q1_codes]
        mult_q4 = population.latency_multipliers[q4_codes]
        assert mult_q1.mean() < mult_q4.mean()
