"""Tests for the biased and unbiased distribution estimators."""

import numpy as np
import pytest

from repro.errors import EmptyDataError
from repro.core.biased import biased_histogram
from repro.core.unbiased import draw_unbiased_samples, unbiased_histogram
from repro.stats.histogram import HistogramBins, latency_bins
from repro.telemetry import ActionRecord, LogStore


def _uniform_logs(n=2000, latency=100.0, span=10_000.0):
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0, span, n))
    return LogStore.from_arrays(
        times=times,
        latencies_ms=np.full(n, latency),
        actions=["a"] * n,
    )


class TestBiased:
    def test_counts_rows(self):
        logs = _uniform_logs(500)
        hist = biased_histogram(logs, latency_bins())
        assert hist.total == 500

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            biased_histogram(LogStore.from_records([]), latency_bins())


class TestUnbiasedDraw:
    def test_selected_indices_valid(self):
        logs = _uniform_logs(300)
        draw = draw_unbiased_samples(logs, n_samples=900, rng=1)
        assert draw.query_times.size == 900
        assert draw.selected_indices.min() >= 0
        assert draw.selected_indices.max() < 300

    def test_default_oversample(self):
        logs = _uniform_logs(100)
        draw = draw_unbiased_samples(logs, rng=2)
        assert draw.query_times.size == 200  # DEFAULT_OVERSAMPLE = 2

    def test_selected_latencies_shape(self):
        logs = _uniform_logs(50)
        draw = draw_unbiased_samples(logs, n_samples=75, rng=3)
        assert draw.selected_latencies.shape == (75,)

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            draw_unbiased_samples(LogStore.from_records([]))

    def test_unsorted_logs_handled(self):
        records = [
            ActionRecord(time=50.0, action="a", latency_ms=1.0),
            ActionRecord(time=10.0, action="a", latency_ms=2.0),
        ]
        logs = LogStore.from_records(records)
        draw = draw_unbiased_samples(logs, n_samples=10, rng=4)
        assert np.all(np.diff(draw.sample_times) >= 0)


class TestUnbiasedReweighting:
    def test_corrects_density_bias(self):
        """The core de-biasing property.

        Latency alternates between 100 ms (first half of time, many
        actions) and 500 ms (second half, few actions). The biased
        histogram over-represents 100 ms by construction; the unbiased one
        must recover the 50/50 time share.
        """
        rng = np.random.default_rng(5)
        fast_times = np.sort(rng.uniform(0, 1000.0, 900))
        slow_times = np.sort(rng.uniform(1000.0, 2000.0, 100))
        logs = LogStore.from_arrays(
            times=np.concatenate([fast_times, slow_times]),
            latencies_ms=np.concatenate([np.full(900, 100.0), np.full(100, 500.0)]),
            actions=["a"] * 1000,
        )
        bins = HistogramBins(0.0, 1000.0, 100.0)
        unbiased = unbiased_histogram(logs, bins)
        share_fast = unbiased.counts[1] / unbiased.total  # 100 ms bin
        share_slow = unbiased.counts[5] / unbiased.total  # 500 ms bin
        assert abs(share_fast - 0.5) < 0.05
        assert abs(share_slow - 0.5) < 0.05

    def test_biased_vs_unbiased_direction(self):
        """B must over-weight the dense (fast) regime relative to U."""
        rng = np.random.default_rng(7)
        fast_times = np.sort(rng.uniform(0, 1000.0, 900))
        slow_times = np.sort(rng.uniform(1000.0, 2000.0, 100))
        logs = LogStore.from_arrays(
            times=np.concatenate([fast_times, slow_times]),
            latencies_ms=np.concatenate([np.full(900, 100.0), np.full(100, 500.0)]),
            actions=["a"] * 1000,
        )
        bins = HistogramBins(0.0, 1000.0, 100.0)
        biased = biased_histogram(logs, bins)
        unbiased = unbiased_histogram(logs, bins)
        ratio = biased.ratio_to(unbiased)
        assert ratio[1] > 1.5  # fast bin over-represented in B
        assert ratio[5] < 0.5  # slow bin under-represented in B
