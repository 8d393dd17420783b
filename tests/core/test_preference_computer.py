"""Tests for the B/U -> NLP transform and result averaging."""

import numpy as np
import pytest

import repro.core.preference as preference
import repro.obs as obs
from repro.core import AutoSens, AutoSensConfig
from repro.errors import ConfigError, InsufficientDataError
from repro.core.preference import PreferenceComputer, average_results
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.workload import owa_scenario
from tests.stats.test_savgol import reference_smooth


def _histogram(bins, counts):
    hist = Histogram1D(bins)
    hist.add_counts(np.asarray(counts, dtype=float))
    return hist


@pytest.fixture()
def bins():
    return HistogramBins(0.0, 600.0, 100.0)  # 6 coarse bins for testing


class TestCompute:
    def test_flat_ratio_gives_flat_nlp(self, bins):
        biased = _histogram(bins, [100, 200, 300, 200, 100, 50])
        unbiased = _histogram(bins, [100, 200, 300, 200, 100, 50])
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=250.0, min_unbiased_count=10)
        result = computer.compute(biased, unbiased)
        valid = ~np.isnan(result.nlp)
        assert np.allclose(result.nlp[valid], 1.0, atol=1e-6)

    def test_declining_ratio_recovered(self, bins):
        unbiased = _histogram(bins, [1000] * 6)
        biased = _histogram(bins, [1200, 1100, 1000, 900, 800, 700])
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=250.0, min_unbiased_count=10)
        result = computer.compute(biased, unbiased)
        assert result.nlp[0] > result.nlp[5]
        assert np.isclose(result.nlp[2], 1.0, atol=0.05)

    def test_reference_normalization(self, bins):
        """A linear ratio passes through degree-1 SG exactly, so the NLP is
        the raw ratio divided by its value at the reference bin."""
        unbiased = _histogram(bins, [1000] * 6)
        biased = _histogram(bins, [1200, 1100, 1000, 900, 800, 700])
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=250.0, min_unbiased_count=10)
        result = computer.compute(biased, unbiased)
        assert np.isclose(result.nlp[2], 1.0)
        assert np.isclose(result.nlp[0], 1.2)
        assert np.isclose(result.nlp[5], 0.7)

    def test_sparse_bins_are_nan(self, bins):
        unbiased = _histogram(bins, [1000, 1000, 1000, 1000, 5, 0])
        biased = _histogram(bins, [100] * 6)
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=150.0, min_unbiased_count=10)
        result = computer.compute(biased, unbiased)
        assert np.isnan(result.nlp[4])
        assert np.isnan(result.nlp[5])

    def test_all_sparse_raises(self, bins):
        unbiased = _histogram(bins, [1] * 6)
        biased = _histogram(bins, [1] * 6)
        computer = PreferenceComputer(min_unbiased_count=100)
        with pytest.raises(InsufficientDataError):
            computer.compute(biased, unbiased)

    def test_mismatched_grids_rejected(self, bins):
        other = HistogramBins(0.0, 600.0, 200.0)
        computer = PreferenceComputer()
        with pytest.raises(ConfigError):
            computer.compute(_histogram(bins, [1] * 6), _histogram(other, [1] * 3))

    def test_reference_outside_grid_rejected(self, bins):
        computer = PreferenceComputer(reference_ms=10_000.0)
        with pytest.raises(ConfigError):
            computer.compute(_histogram(bins, [1] * 6), _histogram(bins, [1] * 6))

    def test_reference_in_sparse_bin_falls_back(self, bins):
        # reference bin (250 -> index 2) has no unbiased mass; the nearest
        # valid bin is used instead of crashing.
        unbiased = _histogram(bins, [1000, 1000, 0, 1000, 1000, 1000])
        biased = _histogram(bins, [100] * 6)
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=0,
                                      reference_ms=250.0, min_unbiased_count=10)
        result = computer.compute(biased, unbiased)
        assert np.nansum(result.nlp) > 0

    def test_unstable_reference_bin_is_recorded(self):
        """When the 300 ms bin is unstable the curve is normalized at the
        nearest valid bin; the result says where, and an obs degradation
        records the fallback."""
        bins = HistogramBins(0.0, 3000.0, 10.0)
        u = np.full(bins.count, 1000.0)
        u[29:32] = 5.0  # 290-320 ms: below min_unbiased_count
        b = 1000.0 * np.exp(-bins.centers / 1500.0)
        computer = PreferenceComputer()
        with obs.session(enabled=True, run_id="fallback") as ctx:
            result = computer.compute(_histogram(bins, b), _histogram(bins, u),
                                      slice_description="hand-built")
            stacked = computer.compute([_histogram(bins, b), _histogram(bins, 2 * b)],
                                       _histogram(bins, u))
        assert result.metadata["normalized_at_ms"] == 285.0
        assert np.isnan(result.nlp[30]) and result.nlp[28] == 1.0
        assert [r.metadata["normalized_at_ms"] for r in stacked] == [285.0, 285.0]
        assert ctx.degradations[0] == {
            "kind": "reference_bin_fallback", "slice": "hand-built",
            "reference_ms": 300.0, "normalized_at_ms": 285.0}
        assert len(ctx.degradations) == 3

    def test_stable_reference_bin_records_no_fallback(self):
        bins = HistogramBins(0.0, 3000.0, 10.0)
        flat = _histogram(bins, np.full(bins.count, 1000.0))
        with obs.session(enabled=True, run_id="no-fallback") as ctx:
            result = PreferenceComputer().compute(flat, flat)
        assert result.metadata["normalized_at_ms"] == 300.0
        assert ctx.degradations == []

    def test_stacked_rows_match_one_row_calls(self):
        """B histograms sharing one U: each row of the stacked call is its
        own one-row call, and a starved row comes back as its error."""
        bins = HistogramBins(0.0, 3000.0, 10.0)
        rng = np.random.default_rng(4)
        u = _histogram(bins, np.where(bins.centers < 2000.0, 500.0, 1.0))
        rows = [_histogram(bins, rng.poisson(200.0, bins.count)) for _ in range(3)]
        starved = np.zeros(bins.count)
        starved[-1] = 1.0  # all its mass sits on unstable bins
        rows.append(_histogram(bins, starved))
        computer = PreferenceComputer()
        stacked = computer.compute(rows, u, slice_description="s", n_actions=7)
        assert isinstance(stacked[3], InsufficientDataError)
        with pytest.raises(InsufficientDataError):
            computer.compute(rows[3], u)
        for row, got in zip(rows[:3], stacked):
            want = computer.compute(row, u, slice_description="s", n_actions=7)
            assert got.n_actions == 7 and got.slice_description == "s"
            np.testing.assert_array_equal(got.biased_counts, want.biased_counts)
            for field in ("raw_ratio", "smoothed_ratio", "nlp"):
                a, b = getattr(got, field), getattr(want, field)
                assert np.array_equal(np.isnan(a), np.isnan(b))
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PreferenceComputer(smoothing_window=4)
        with pytest.raises(ConfigError):
            PreferenceComputer(reference_ms=-5.0)


class TestAverageResults:
    def _result(self, bins, scale):
        unbiased = _histogram(bins, [1000] * 6)
        biased = _histogram(bins, list(np.array([1200, 1100, 1000, 900, 800, 700]) * scale))
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=250.0, min_unbiased_count=10)
        return computer.compute(biased, unbiased)

    def test_average_of_identical_is_identity(self, bins):
        a = self._result(bins, 1.0)
        b = self._result(bins, 1.0)
        merged = average_results([a, b])
        valid = ~np.isnan(a.nlp)
        assert np.allclose(merged.nlp[valid], a.nlp[valid])

    def test_scale_invariance_of_nlp(self, bins):
        """NLP is normalized, so scaling raw counts changes nothing."""
        a = self._result(bins, 1.0)
        b = self._result(bins, 7.0)
        valid = ~np.isnan(a.nlp)
        assert np.allclose(a.nlp[valid], b.nlp[valid], atol=1e-9)

    def test_metadata_counts_inputs(self, bins):
        merged = average_results([self._result(bins, 1.0)] * 3)
        assert merged.metadata["averaged_over"] == 3

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            average_results([])

    def test_mixed_grids_rejected(self, bins):
        a = self._result(bins, 1.0)
        other_bins = HistogramBins(0.0, 600.0, 200.0)
        unbiased = _histogram(other_bins, [1000] * 3)
        computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                      reference_ms=250.0, min_unbiased_count=10)
        b = computer.compute(unbiased, unbiased)
        with pytest.raises(ConfigError):
            average_results([a, b])


class _ReferenceSmoother:
    """Stands in for SavitzkyGolay with the former per-bin lstsq filter."""

    def __init__(self, window, degree):
        self.window, self.degree = window, degree

    def __call__(self, values):
        return reference_smooth(values, self.window, self.degree)


def test_curve_matches_reference_smoother(monkeypatch):
    """End to end, the masked-moment kernel leaves a real curve unchanged:
    every bin it could extrapolate differently is unstable and dropped."""
    logs = owa_scenario(seed=7, duration_days=3.0, n_users=120,
                        candidates_per_user_day=100.0).generate().logs
    ours = AutoSens(AutoSensConfig()).preference_curve(logs, action="SelectMail")
    monkeypatch.setattr(preference, "SavitzkyGolay", _ReferenceSmoother)
    theirs = AutoSens(AutoSensConfig()).preference_curve(logs, action="SelectMail")
    nan = np.isnan(theirs.nlp)
    assert nan.any() and not nan.all()
    assert np.array_equal(np.isnan(ours.nlp), nan)
    np.testing.assert_allclose(ours.nlp[~nan], theirs.nlp[~nan], rtol=1e-9, atol=1e-9)
