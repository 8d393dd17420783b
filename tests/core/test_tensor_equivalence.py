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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AutoSens, AutoSensConfig, SubsamplePolicy
from repro.core.alpha import (
    SLOT_SCHEMES,
    SlottedCounts,
    alpha_from_counts,
    corrected_histograms_from_counts,
    _exact_unbiased_tensor,
    _slot_cuts,
    slot_of_times,
    slotted_counts,
)
from repro.core.preference import average_results
from repro.core.unbiased import UNBIASED_MASS_PER_ACTION
from repro.errors import ConfigError
from repro.parallel import ProcessExecutor
from repro.stats.histogram import latency_bins
from repro.telemetry import LogStore
from tests.core.legacy_reference import (
    _legacy_alpha_from_counts,
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

        Slot ids and biased counts match bitwise. The loop reference gives
        each sample its whole Voronoi cell in the sample's own slot; the
        shipped tensor clips cells at slot boundaries, so the time fractions
        differ only by those boundary pieces.
        """
        new = slotted_counts(owa_logs, BINS)
        old = _legacy_slotted_counts(
            owa_logs, BINS, n_unbiased_samples=len(owa_logs), rng=3,
            estimator="voronoi",
        )
        assert np.array_equal(new.slot_ids, old.slot_ids)
        assert np.array_equal(new.biased_counts, old.biased_counts)
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
        assert np.max(np.abs(new.time_fractions - old.time_fractions)) < 0.05

    def test_period_lookup_matches_python_loop(self, owa_logs):
        new = slot_of_times(owa_logs.times, "period", owa_logs.tz_offsets)
        old = _legacy_period_slots(owa_logs.times, owa_logs.tz_offsets)
        assert np.array_equal(new, old)


def _store_covering(times, tz):
    """A store of ``times`` plus one action in the middle of every stretch
    between slot boundaries, so every stretch's slot holds an action.

    Every latency is 250 ms, on the bin grid.
    """
    lo, hi = float(np.min(times)), float(np.max(times))
    bounds = np.concatenate(([lo], _slot_cuts(lo, hi, tz), [hi]))
    times = np.concatenate((times, 0.5 * (bounds[1:] + bounds[:-1])))
    n = times.size
    return LogStore.from_arrays(times, np.full(n, 250.0), ["SelectMail"] * n,
                                tz_offsets=np.full(n, tz))


def _assert_exact_seconds(logs, scheme):
    """Slot seconds sum to the span and equal the unnormalised U's rows."""
    counts = slotted_counts(logs, BINS, scheme=scheme)
    t0, t1 = logs.time_range()
    assert counts.slot_seconds.sum() == pytest.approx(t1 - t0, rel=1e-12, abs=0.0)
    order = np.argsort(logs.times, kind="mergesort")
    u, seconds = _exact_unbiased_tensor(
        logs.times[order], BINS.index_of(logs.latencies_ms[order]),
        counts.slot_ids, BINS.count, scheme, float(np.median(logs.tz_offsets)))
    assert np.array_equal(seconds, counts.slot_seconds)
    np.testing.assert_allclose(u.sum(axis=1), seconds, rtol=1e-12, atol=0.0)
    return counts


class TestSlotCoverage:
    """``slot_seconds`` is the exact seconds of sample time in each slot."""

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(SLOT_SCHEMES),
        base=st.sampled_from([0.0, 1.6e9, 1.7e9 + 0.123]),
        offset=st.floats(0.0, 3 * 86400.0),
        span=st.floats(1.0, 4 * 86400.0),
        tz=st.sampled_from([0.0, 5.5, -7.0, 5.75]),
        seed=st.integers(0, 2**16),
    )
    def test_random_spans(self, scheme, base, offset, span, tz, seed):
        start = base + offset
        rng = np.random.default_rng(seed)
        times = np.concatenate(([start, start + span],
                                rng.uniform(start, start + span, 50)))
        _assert_exact_seconds(_store_covering(times, tz), scheme)

    def test_whole_hour_spans(self):
        """Hour-aligned spans give whole hours per slot, exactly."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            start = 1.7e9 - 1.7e9 % 3600 + 3600 * int(rng.integers(0, 48))
            hours = int(rng.integers(1, 24 * 9))
            logs = _store_covering(np.array([start, start + 3600.0 * hours]), 0.0)
            for scheme in SLOT_SCHEMES:
                counts = _assert_exact_seconds(logs, scheme)
                slots = slot_of_times(start + 3600.0 * (np.arange(hours) + 0.5),
                                      scheme, 0.0)
                expected = 3600.0 * (slots[:, None] == counts.slot_ids).sum(axis=0)
                assert np.array_equal(counts.slot_seconds, expected), scheme

    def test_spans_shorter_than_one_step(self):
        """Sub-minute spans, where a 1-minute grid counts 0 or 60 s."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            start = 1.7e9 + 3600 * int(rng.integers(0, 48)) + rng.choice(
                [0.0, -1e-3, -30.0, rng.uniform(-60, 0)])
            span = rng.uniform(1e-3, 59.9)
            logs = _store_covering(np.array([start, start + span]), 5.5)
            for scheme in SLOT_SCHEMES:
                _assert_exact_seconds(logs, scheme)

    def test_grid_points_on_rounded_cuts(self):
        """Spans starting or ending within one ulp of a slot boundary."""
        rng = np.random.default_rng(14)
        for _ in range(15):
            tz = rng.choice([5.5, rng.uniform(-12, 12)])
            shift = tz * 3600.0
            base = rng.choice([4e5, 1.7e9])
            cut = (np.floor((base + shift) / 3600) + rng.integers(1, 30)) * 3600 - shift
            for point in (cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)):
                start = point - 3600.0 * int(rng.integers(0, 5))
                end = start + 3600.0 * int(rng.integers(1, 60))
                for stop in (end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)):
                    logs = _store_covering(np.array([start, stop]), tz)
                    for scheme in SLOT_SCHEMES:
                        _assert_exact_seconds(logs, scheme)


class TestAlphaArithmetic:
    """The masked α arithmetic against the per-slot loops it replaced.

    ``alpha_matrix`` is bitwise equal. ``alpha_by_slot`` sums whole masked
    rows instead of the compressed defined bins, so only the float
    summation order differs.
    """

    @staticmethod
    def _assert_matches_loops(counts, **kwargs):
        new = alpha_from_counts(counts, **kwargs)
        old = _legacy_alpha_from_counts(counts, **kwargs)
        assert new.reference_slot == old.reference_slot
        assert np.array_equal(new.alpha_matrix, old.alpha_matrix, equal_nan=True)
        assert np.array_equal(np.isnan(new.alpha_by_slot), np.isnan(old.alpha_by_slot))
        np.testing.assert_allclose(new.alpha_by_slot, old.alpha_by_slot,
                                   rtol=1e-12, atol=0.0)
        return new

    @pytest.mark.parametrize("bin_average", ["simple", "weighted"])
    @pytest.mark.parametrize("scheme", ["hour-of-day", "period", "absolute-hour"])
    def test_every_reference_matches_loops(self, owa_logs, scheme, bin_average):
        counts = slotted_counts(owa_logs, BINS, scheme=scheme)
        for reference in counts.busiest_slots(4):
            self._assert_matches_loops(counts, reference_slot=reference,
                                       bin_average=bin_average)

    @pytest.mark.parametrize("bin_average", ["simple", "weighted"])
    def test_count_ratio_fallback_matches_loops(self, bin_average):
        """Slots sharing no valid bin with the reference use the count ratio."""
        bins = latency_bins(100.0, 10.0)
        rng = np.random.default_rng(5)
        c = rng.integers(0, 40, size=(6, bins.count)).astype(float)
        c[2, :] = 1.0            # below min_bin_count everywhere
        c[4, :5] = 0.0           # valid only where the reference is not
        c[0, 5:] = 0.0
        f = rng.random((6, bins.count))
        f[3] = 0.0               # no time fraction: every rate undefined
        f /= np.maximum(f.sum(axis=1, keepdims=True), 1e-300)
        counts = SlottedCounts(scheme="hour-of-day", slot_ids=np.arange(6),
                               biased_counts=c, time_fractions=f, bins=bins)
        alpha = self._assert_matches_loops(counts, reference_slot=0,
                                           bin_average=bin_average)
        totals = c.sum(axis=1)
        for row in (2, 3, 4):
            assert alpha.alpha_by_slot[row] == totals[row] / totals[0]
        assert alpha.alpha_by_slot[0] == 1.0

    def test_weighted_zero_reference_weights_fall_back(self):
        """``"weighted"`` with no reference count in any defined bin.

        With ``min_bin_count=0`` a bin the reference slot never saw is
        still defined. Row 1 is defined only in such bins, so its weights
        sum to zero. The loop's ``np.average`` raised ``ZeroDivisionError``
        there; the masked sum gives 0/0 and the row takes the count ratio,
        like any row with no usable bin.
        """
        bins = latency_bins(100.0, 10.0)
        half = bins.count // 2
        c = np.full((2, bins.count), 10.0)
        c[0, :half] = 0.0
        c[1, half:] = 0.0
        f = np.full((2, bins.count), 1.0 / bins.count)
        f[1, half:] = 0.0
        counts = SlottedCounts(scheme="hour-of-day", slot_ids=np.arange(2),
                               biased_counts=c, time_fractions=f, bins=bins)
        kwargs = dict(reference_slot=0, min_bin_count=0.0, bin_average="weighted")
        with pytest.raises(ZeroDivisionError), np.errstate(divide="ignore", invalid="ignore"):
            _legacy_alpha_from_counts(counts, **kwargs)
        alpha = alpha_from_counts(counts, **kwargs)
        assert np.all(np.isposinf(alpha.alpha_matrix[1, :half]))
        assert np.all(np.isnan(alpha.alpha_matrix[1, half:]))
        totals = c.sum(axis=1)
        assert alpha.alpha_by_slot[1] == totals[1] / totals[0]
        assert alpha.alpha_by_slot[0] == 1.0


class TestCorrectedHistograms:
    def test_contraction_matches_per_sample_rescan(self, owa_logs):
        """B and U from the tensor contraction == the kept per-sample
        reference, which rescans every action."""
        counts, alpha = _counts_and_alpha(owa_logs)
        b_new, u_new = corrected_histograms_from_counts(counts, alpha)
        b_old, u_old = _legacy_corrected_histograms(owa_logs, BINS, alpha)
        np.testing.assert_allclose(b_new.counts, b_old.counts, rtol=1e-9, atol=1e-9)
        assert np.array_equal(u_new.counts, u_old.counts)

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
