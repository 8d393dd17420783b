"""Tests for the time-based activity factor (alpha) machinery."""

import numpy as np
import pytest

from repro.errors import ConfigError, EmptyDataError
from repro.core.alpha import (
    alpha_from_counts,
    corrected_histograms_from_counts,
    estimate_alpha,
    slot_labels,
    slot_of_times,
    slotted_counts,
    worked_example,
)
from repro.stats.histogram import HistogramBins, latency_bins
from repro.telemetry import LogStore


class TestWorkedExample:
    """The paper's Table 1, to the printed precision."""

    def test_alpha_per_bin(self):
        example = worked_example()
        assert example.alpha_per_bin["low"] == pytest.approx(0.10833, abs=1e-4)
        assert example.alpha_per_bin["high"] == pytest.approx(0.100, abs=1e-9)

    def test_alpha_average(self):
        assert worked_example().alpha == pytest.approx(0.10417, abs=1e-4)

    def test_normalized_counts(self):
        example = worked_example()
        assert example.normalized_counts["low"] == pytest.approx(249.6, abs=0.1)
        assert example.normalized_counts["high"] == pytest.approx(38.4, abs=0.1)

    def test_naive_rates_inverted(self):
        """Without correction, 'high' latency looks MORE active."""
        example = worked_example()
        assert example.naive_rates["high"] > example.naive_rates["low"]
        assert example.naive_rates["low"] == pytest.approx(116 / 110, abs=1e-6)
        assert example.naive_rates["high"] == pytest.approx(144 / 90, abs=1e-6)

    def test_corrected_rates_sane(self):
        """With correction, 'low' latency is (correctly) more active."""
        example = worked_example()
        assert example.corrected_rates["low"] > example.corrected_rates["high"]
        assert example.corrected_rates["low"] == pytest.approx(3.09, abs=0.01)
        assert example.corrected_rates["high"] == pytest.approx(1.98, abs=0.01)

    def test_rejects_zero_fractions(self):
        with pytest.raises(ConfigError):
            worked_example(day_fractions=(0.0, 1.0))


class TestSlotting:
    def test_hour_of_day(self):
        slots = slot_of_times(np.array([0.0, 3600.0 * 25]), "hour-of-day")
        assert slots.tolist() == [0, 1]

    def test_period(self):
        slots = slot_of_times(np.array([9 * 3600.0, 15 * 3600.0,
                                        21 * 3600.0, 3 * 3600.0]), "period")
        assert slots.tolist() == [0, 1, 2, 3]

    def test_absolute(self):
        slots = slot_of_times(np.array([0.0, 90_000.0]), "absolute-hour")
        assert slots.tolist() == [0, 25]

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            slot_of_times(np.array([0.0]), "fortnight")

    def test_labels(self):
        assert slot_labels("hour-of-day", [0, 13]) == ["00:00", "13:00"]
        assert slot_labels("period", [0]) == ["8am-2pm"]
        assert slot_labels("absolute-hour", [7]) == ["hour+7"]


def _two_regime_logs(rng_seed=0):
    """Days: high latency (500 ms), busy. Nights: low latency (100 ms), quiet.

    10 synthetic days; day slot = hours 8-20, night = rest. Rates: 60/hr
    day, 6/hr night. This is Table 1 as a full log stream.
    """
    rng = np.random.default_rng(rng_seed)
    times, latencies = [], []
    for day in range(10):
        base = day * 86400.0
        day_times = base + rng.uniform(8 * 3600.0, 20 * 3600.0, 720)
        night_a = base + rng.uniform(0.0, 8 * 3600.0, 48)
        night_b = base + rng.uniform(20 * 3600.0, 24 * 3600.0, 24)
        times.append(day_times)
        latencies.append(rng.normal(500.0, 20.0, 720))
        times.append(np.concatenate([night_a, night_b]))
        latencies.append(rng.normal(100.0, 10.0, 72))
    t = np.concatenate(times)
    lat = np.clip(np.concatenate(latencies), 1.0, None)
    order = np.argsort(t)
    return LogStore.from_arrays(times=t[order], latencies_ms=lat[order],
                                actions=["a"] * t.size)


class TestEstimateAlpha:
    def test_night_alpha_low(self):
        logs = _two_regime_logs()
        bins = latency_bins(1000.0, 10.0)
        alpha = estimate_alpha(logs, bins, scheme="hour-of-day")
        est = dict(zip(alpha.slot_ids.tolist(), alpha.alpha_by_slot.tolist()))
        assert est[12] == pytest.approx(1.0, abs=0.35)
        assert est[2] < 0.35  # night activity ~10x lower

    def test_reference_slot_is_one(self):
        logs = _two_regime_logs()
        alpha = estimate_alpha(logs, latency_bins(1000.0, 10.0),
                               reference_slot=12)
        assert alpha.alpha_of(12) == 1.0

    def test_unknown_reference_rejected(self):
        logs = _two_regime_logs()
        counts = slotted_counts(logs, latency_bins(1000.0, 10.0))
        with pytest.raises(ConfigError):
            alpha_from_counts(counts, reference_slot=999)

    def test_busiest_slots_order(self):
        logs = _two_regime_logs()
        counts = slotted_counts(logs, latency_bins(1000.0, 10.0))
        busiest = counts.busiest_slots(3)
        assert all(8 <= slot < 20 for slot in busiest)

    def test_weighted_vs_simple_agree_roughly(self):
        logs = _two_regime_logs()
        counts = slotted_counts(logs, latency_bins(1000.0, 10.0))
        simple = alpha_from_counts(counts, reference_slot=12, bin_average="simple")
        weighted = alpha_from_counts(counts, reference_slot=12, bin_average="weighted")
        mask = ~np.isnan(simple.alpha_by_slot)
        assert np.allclose(simple.alpha_by_slot[mask],
                           weighted.alpha_by_slot[mask], atol=0.3)

    def test_bad_bin_average(self):
        logs = _two_regime_logs()
        counts = slotted_counts(logs, latency_bins(1000.0, 10.0))
        with pytest.raises(ConfigError):
            alpha_from_counts(counts, bin_average="median")

    def test_empty_logs(self):
        with pytest.raises(EmptyDataError):
            estimate_alpha(LogStore.from_records([]), latency_bins())

    def test_alpha_scale_invariance(self):
        """Scaling every count leaves alpha (a rate ratio) unchanged.

        ``min_bin_count=0`` pins the bin-validity mask, which otherwise
        changes with scale and admits different bins to the average.
        """
        logs = _two_regime_logs()
        bins = latency_bins(1000.0, 10.0)
        counts = slotted_counts(logs, bins)
        alpha_1 = alpha_from_counts(counts, reference_slot=12, min_bin_count=0.0)
        counts.biased_counts *= 3.0
        alpha_2 = alpha_from_counts(counts, reference_slot=12, min_bin_count=0.0)
        mask = ~np.isnan(alpha_1.alpha_by_slot)
        assert np.allclose(alpha_1.alpha_by_slot[mask],
                           alpha_2.alpha_by_slot[mask])


class TestCorrectedHistograms:
    def test_corrects_inversion(self):
        """The full-pipeline version of Table 1: corrected B must undo the
        inversion. Activity here depends on the hour only, so both latency
        regimes come out equally preferred."""
        counts = slotted_counts(_two_regime_logs(), HistogramBins(0.0, 1000.0, 100.0))
        biased, unbiased = corrected_histograms_from_counts(
            counts, alpha_from_counts(counts))
        ratio = biased.ratio_to(unbiased)
        # bin 1 = 100 ms regime, bin 5 = 500 ms regime
        assert ratio[1] == pytest.approx(ratio[5], rel=0.05)

    def test_naive_is_inverted(self):
        """Sanity: without correction the same data looks inverted."""
        from repro.core.biased import biased_histogram
        from repro.core.unbiased import unbiased_histogram

        logs = _two_regime_logs()
        bins = HistogramBins(0.0, 1000.0, 100.0)
        biased = biased_histogram(logs, bins)
        unbiased = unbiased_histogram(logs, bins)
        ratio = biased.ratio_to(unbiased)
        assert ratio[5] > ratio[1]

    def test_total_mass_positive(self):
        counts = slotted_counts(_two_regime_logs(), HistogramBins(0.0, 1000.0, 100.0))
        biased, unbiased = corrected_histograms_from_counts(
            counts, alpha_from_counts(counts))
        assert biased.total > 0
        assert unbiased.total > 0

    def test_empty_rejected(self):
        """Empty logs are refused before any tensor is contracted."""
        with pytest.raises(EmptyDataError):
            slotted_counts(LogStore.from_records([]), HistogramBins(0.0, 1000.0, 100.0))
