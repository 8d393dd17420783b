"""Equivalence guarantees of the tensorized/parallel fast paths.

The refactor's contract: the count tensor, the per-reference contraction
and the executor backends are *pure plumbing* — every fast path must
reproduce the reference path numerically (bit-identically where the
accumulation order is unchanged), and repeated evaluations of one slice
are bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AutoSens, AutoSensConfig, SubsamplePolicy
from repro.core.alpha import (
    alpha_from_counts,
    corrected_histograms,
    corrected_histograms_from_counts,
    slot_of_times,
    slotted_counts,
)
from repro.core.preference import average_results
from repro.core.unbiased import UNBIASED_MASS_PER_ACTION
from repro.errors import ConfigError
from repro.parallel import ProcessExecutor
from repro.stats.histogram import latency_bins
from tests.core.legacy_reference import (
    _legacy_corrected_histograms,
    _legacy_period_slots,
    _legacy_slotted_counts,
)

BINS = latency_bins(3000.0, 10.0)

#: Curve paths repeated evaluations must reproduce bitwise. ``sampling`` thins the
#: slice with a seeded event subsample, so a random stream flows into the
#: curve; ``voronoi`` feeds the whole slice to the exact Voronoi U.
SUBSAMPLES = {"sampling": SubsamplePolicy(event_fraction=0.5), "voronoi": None}


def _counts_and_alpha(logs):
    counts = slotted_counts(logs, BINS)
    return counts, alpha_from_counts(counts)


def _assert_curves_identical(result_a, result_b):
    assert np.array_equal(result_a.nlp, result_b.nlp, equal_nan=True)
    assert np.array_equal(result_a.raw_ratio, result_b.raw_ratio, equal_nan=True)
    assert result_a.n_actions == result_b.n_actions


class TestCountTensor:
    def test_voronoi_matches_per_slot_loops_bitwise(self, owa_logs):
        """The fused-bincount tensor equals the masked per-slot loops.

        Slot ids, biased counts and slot seconds match bitwise. The loop
        reference gives each sample its whole Voronoi cell in the sample's
        own slot; the shipped tensor clips cells at slot boundaries, so the
        time fractions differ only by those boundary pieces.
        """
        new = slotted_counts(owa_logs, BINS)
        old = _legacy_slotted_counts(
            owa_logs, BINS, n_unbiased_samples=len(owa_logs), rng=3,
            estimator="voronoi",
        )
        assert np.array_equal(new.slot_ids, old.slot_ids)
        assert np.array_equal(new.biased_counts, old.biased_counts)
        assert np.array_equal(new.slot_seconds, old.slot_seconds)
        assert np.max(np.abs(new.time_fractions - old.time_fractions)) < 0.01

    def test_sampling_matches_per_slot_loops(self, owa_logs):
        """Deterministic halves bitwise; exact fractions within draw noise.

        The loop reference estimates the time fractions with the paper's
        random-time draw; the shipped tensor computes that draw's
        infinite-sample limit, so the two agree up to Monte Carlo noise.
        """
        new = slotted_counts(owa_logs, BINS)
        old = _legacy_slotted_counts(
            owa_logs, BINS, n_unbiased_samples=len(owa_logs), rng=3,
            estimator="sampling",
        )
        assert np.array_equal(new.slot_ids, old.slot_ids)
        assert np.array_equal(new.biased_counts, old.biased_counts)
        assert np.array_equal(new.slot_seconds, old.slot_seconds)
        assert np.max(np.abs(new.time_fractions - old.time_fractions)) < 0.05

    def test_period_lookup_matches_python_loop(self, owa_logs):
        new = slot_of_times(owa_logs.times, "period", owa_logs.tz_offsets)
        old = _legacy_period_slots(owa_logs.times, owa_logs.tz_offsets)
        assert np.array_equal(new, old)


class TestCorrectedHistograms:
    def test_contraction_matches_per_sample_rescan(self, owa_logs):
        """B from the tensor contraction == B from rescanning every action."""
        counts, alpha = _counts_and_alpha(owa_logs)
        b_new, u_new = corrected_histograms_from_counts(counts, alpha)
        b_old, u_old = _legacy_corrected_histograms(owa_logs, BINS, alpha)
        np.testing.assert_allclose(b_new.counts, b_old.counts, rtol=1e-9, atol=1e-9)
        assert np.array_equal(u_new.counts, u_old.counts)

    def test_contraction_matches_kept_reference_impl(self, owa_logs):
        """The in-tree per-sample reference stayed equivalent too."""
        counts, alpha = _counts_and_alpha(owa_logs)
        b_new, u_new = corrected_histograms_from_counts(counts, alpha)
        b_ref, u_ref = corrected_histograms(owa_logs, BINS, alpha)
        np.testing.assert_allclose(b_new.counts, b_ref.counts, rtol=1e-9, atol=1e-9)
        assert np.array_equal(u_new.counts, u_ref.counts)

    def test_every_reference_slot_agrees(self, owa_logs):
        counts, _ = _counts_and_alpha(owa_logs)
        for reference in counts.busiest_slots(3):
            alpha = alpha_from_counts(counts, reference_slot=reference)
            b_new, _ = corrected_histograms_from_counts(counts, alpha)
            b_old, _ = _legacy_corrected_histograms(owa_logs, BINS, alpha)
            np.testing.assert_allclose(b_new.counts, b_old.counts, rtol=1e-9, atol=1e-9)

    def test_corrected_curve_matches_legacy_path(self, owa_logs):
        """The whole multi-reference curve, tensor path vs per-slot loops.

        The legacy path draws U by Monte Carlo, so the curves agree up to
        draw noise. The largest per-bin gap sits on the last supported bin
        (up to ~0.18 over 20 draws), so the bound is on the mean gap
        (0.005-0.012 over the same draws).
        """
        config = AutoSensConfig()
        bins = config.bins()

        def curve(counts, corrected):
            per_reference = []
            for reference in counts.busiest_slots(config.n_reference_slots):
                alpha = alpha_from_counts(counts, reference_slot=reference)
                biased, unbiased = corrected(alpha)
                per_reference.append(config.computer().compute(
                    biased, unbiased, slice_description="equivalence",
                    n_actions=len(owa_logs)))
            return average_results(per_reference, slice_description="equivalence")

        new_counts = slotted_counts(owa_logs, bins)
        new = curve(new_counts,
                    lambda alpha: corrected_histograms_from_counts(new_counts, alpha))
        old_counts = _legacy_slotted_counts(
            owa_logs, bins,
            n_unbiased_samples=int(np.ceil(UNBIASED_MASS_PER_ACTION * len(owa_logs))),
            rng=3,
        )
        old = curve(old_counts,
                    lambda alpha: _legacy_corrected_histograms(owa_logs, bins, alpha))
        common = np.isfinite(new.nlp) & np.isfinite(old.nlp)
        assert common.sum() > 0.9 * np.isfinite(new.nlp).sum()
        assert np.mean(np.abs(new.nlp[common] - old.nlp[common])) < 0.03

    def test_mismatched_grids_rejected(self, owa_logs):
        counts, alpha = _counts_and_alpha(owa_logs)
        other = slotted_counts(owa_logs, latency_bins(2000.0, 10.0))
        with pytest.raises(ConfigError):
            corrected_histograms_from_counts(other, alpha)


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", sorted(SUBSAMPLES))
    def test_cached_curve_is_bit_identical(self, owa_logs, mode):
        config = AutoSensConfig(seed=17)
        engine = AutoSens(config, subsample=SUBSAMPLES[mode])
        fresh = AutoSens(config, subsample=SUBSAMPLES[mode])
        first = engine.preference_curve(owa_logs, action="SelectMail")
        again = engine.preference_curve(owa_logs, action="SelectMail")
        cold = fresh.preference_curve(owa_logs, action="SelectMail")
        _assert_curves_identical(first, again)
        _assert_curves_identical(first, cold)

    def test_process_sweep_matches_serial_bitwise(self, owa_logs):
        config = AutoSensConfig(seed=17)
        serial = AutoSens(config, executor="serial")
        process = AutoSens(config, executor=ProcessExecutor(max_workers=2))
        serial_curves = serial.curves_by_action(owa_logs)
        process_curves = process.curves_by_action(owa_logs)
        assert serial_curves.keys() == process_curves.keys()
        for name in serial_curves:
            _assert_curves_identical(serial_curves[name], process_curves[name])

    def test_period_sweep_matches_serial_bitwise(self, owa_logs):
        config = AutoSensConfig(seed=23)
        serial_curves = AutoSens(config, executor="serial").curves_by_period(
            owa_logs, action="SelectMail"
        )
        process_curves = AutoSens(
            config, executor=ProcessExecutor(max_workers=2)
        ).curves_by_period(owa_logs, action="SelectMail")
        assert serial_curves.keys() == process_curves.keys()
        for name in serial_curves:
            _assert_curves_identical(serial_curves[name], process_curves[name])
