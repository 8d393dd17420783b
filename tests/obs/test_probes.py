"""Estimator-health probes under degenerate inputs.

The contract pinned here: probes **never raise**. Empty latency bins, a
single-slot run, a constant-latency series where MSD/MAD is undefined —
each produces ``warn``/``fail`` findings, not exceptions. A diagnostics
layer that crashes the run it is diagnosing is worse than none.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import probes
from repro.obs.probes import (
    HealthFinding,
    probe_alpha_dispersion,
    probe_bin_occupancy,
    probe_density_correlation,
    probe_latency_regime,
    probe_locality,
    probe_slot_support,
    probe_smoothing_edges,
    probe_u_coverage,
)


def _severities(findings):
    return [f.severity for f in findings]


class TestHealthFinding:
    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            HealthFinding(probe="p", stage="s", severity="panic", message="m")

    def test_to_dict_rounds_and_drops_absent_fields(self):
        finding = HealthFinding(
            probe="p", stage="s", severity="ok", message="m",
            value=0.123456789, context={"n": np.int64(3)})
        payload = finding.to_dict()
        assert payload["value"] == 0.123457
        assert "threshold" not in payload
        assert payload["context"]["n"] == 3  # numpy scalars JSON-safe


class TestBinOccupancy:
    def test_empty_unbiased_is_fail(self):
        findings = probe_bin_occupancy(
            np.zeros(10), np.zeros(10), min_unbiased_count=40)
        assert _severities(findings) == ["fail"]
        assert "empty" in findings[0].message

    def test_zero_length_arrays_are_fail_not_crash(self):
        findings = probe_bin_occupancy(
            np.array([]), np.array([]), min_unbiased_count=40)
        assert _severities(findings) == ["fail"]

    def test_no_stable_bin_is_fail(self):
        findings = probe_bin_occupancy(
            np.full(10, 5.0), np.full(10, 3.0), min_unbiased_count=40)
        assert _severities(findings) == ["fail"]
        assert "no latency bin" in findings[0].message

    def test_nan_counts_do_not_raise(self):
        findings = probe_bin_occupancy(
            np.full(10, np.nan), np.full(10, np.nan), min_unbiased_count=40)
        assert all(f.severity in ("warn", "fail") for f in findings)

    def test_healthy_histograms_are_ok(self):
        u = np.full(300, 100.0)
        findings = probe_bin_occupancy(u, u, min_unbiased_count=40)
        assert _severities(findings) == ["ok", "ok"]
        occupancy = findings[0]
        assert occupancy.value == 1.0
        assert occupancy.context["biased_ess_bins"] == 300.0

    def test_thin_draw_warns_on_sample_size(self):
        u = np.zeros(300)
        u[:30] = 10.0  # unstable, total mass 335 < 400
        u[0] = 45.0    # one stable bin keeps the curve defined
        findings = probe_bin_occupancy(u, u, min_unbiased_count=40)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["unbiased_sample_size"].severity == "warn"


class TestUCoverage:
    def test_empty_biased_is_fail(self):
        findings = probe_u_coverage(np.zeros(10), np.ones(10) * 50, 40)
        assert _severities(findings) == ["fail"]

    def test_low_coverage_fails_mid_coverage_warns(self):
        b = np.zeros(10)
        b[0] = 70.0
        b[1] = 30.0
        u = np.zeros(10)
        u[0] = 100.0  # only bin 0 stable -> 70% covered -> warn
        assert probe_u_coverage(b, u, 40)[0].severity == "warn"
        b[0], b[1] = 30.0, 70.0  # 30% covered -> fail
        assert probe_u_coverage(b, u, 40)[0].severity == "fail"

    def test_full_coverage_is_ok(self):
        b = np.ones(10)
        u = np.full(10, 50.0)
        assert probe_u_coverage(b, u, 40)[0].severity == "ok"


class TestAlphaDispersion:
    def test_empty_matrix_is_fail(self):
        findings = probe_alpha_dispersion(
            np.empty((0, 5)), np.array([]), reference_slot=0)
        assert _severities(findings) == ["fail"]

    def test_all_nan_matrix_reports_fallback_as_informational(self):
        # No slot has >=2 valid bins: the total-count fallback carried the
        # run. That is expected at small scale, so it must not dirty the
        # verdict of an otherwise clean run.
        matrix = np.full((4, 6), np.nan)
        findings = probe_alpha_dispersion(
            matrix, np.ones(4), reference_slot=0)
        assert _severities(findings) == ["ok"]
        assert "fallback" in findings[0].message

    def test_flat_alpha_is_ok(self):
        matrix = np.tile(np.array([1.0, 1.0, 1.0, 1.0]), (3, 1))
        findings = probe_alpha_dispersion(matrix, np.ones(3), 0)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["alpha_dispersion"].severity == "ok"
        assert by_probe["alpha_dispersion"].value == 0.0

    def test_wild_dispersion_warns_then_fails(self):
        warn_row = np.array([1.0, 5.0, 0.2, 3.0])  # CV ≈ 0.85
        findings = probe_alpha_dispersion(
            np.tile(warn_row, (3, 1)), np.ones(3), 0)
        assert findings[0].severity == "warn"
        fail_row = np.array([0.001, 20.0, 0.001, 0.001])  # CV ≈ 1.73
        findings = probe_alpha_dispersion(
            np.tile(fail_row, (3, 1)), np.ones(3), 0)
        assert findings[0].severity == "fail"


class TestSlotSupport:
    def test_single_slot_warns_identity_correction(self):
        findings = probe_slot_support(
            n_slots=1, n_reference_slots=3, n_used_references=1)
        assert findings[0].severity == "warn"
        assert "identity" in findings[0].message

    def test_zero_slots_warn_not_crash(self):
        findings = probe_slot_support(
            n_slots=0, n_reference_slots=0, n_used_references=0)
        assert findings[0].severity == "warn"

    def test_dropped_references_warn(self):
        findings = probe_slot_support(
            n_slots=24, n_reference_slots=3, n_used_references=1)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["slot_support"].severity == "ok"
        assert by_probe["reference_slots"].severity == "warn"


class TestSmoothingEdges:
    def test_no_stable_bins_is_fail(self):
        findings = probe_smoothing_edges(np.zeros(300, dtype=bool), 101)
        assert _severities(findings) == ["fail"]

    def test_empty_mask_is_fail_not_crash(self):
        findings = probe_smoothing_edges(np.array([], dtype=bool), 101)
        assert _severities(findings) == ["fail"]

    def test_sliver_of_support_warns(self):
        mask = np.zeros(300, dtype=bool)
        mask[10:20] = True  # run of 10 < half-window 51
        findings = probe_smoothing_edges(mask, 101)
        assert _severities(findings) == ["warn"]
        assert findings[0].context["longest_stable_run"] == 10

    def test_half_window_support_is_ok(self):
        mask = np.zeros(300, dtype=bool)
        mask[0:60] = True  # 60 >= half-window 51, though < full window
        findings = probe_smoothing_edges(mask, 101)
        assert _severities(findings) == ["ok"]
        assert findings[0].context["edge_free"] is False

    def test_full_window_support_is_edge_free(self):
        mask = np.ones(300, dtype=bool)
        findings = probe_smoothing_edges(mask, 101)
        assert findings[0].severity == "ok"
        assert findings[0].context["edge_free"] is True


class TestLocality:
    def test_constant_latency_series_warns_not_raises(self):
        # MAD = 0 everywhere: the three ratios coincide, span is zero.
        findings = probe_locality(actual=1.0, shuffled=1.0, sorted_ratio=1.0)
        assert _severities(findings) == ["warn"]
        assert "degenerate" in findings[0].message

    def test_nan_ratios_warn_not_raise(self):
        findings = probe_locality(
            actual=float("nan"), shuffled=1.0, sorted_ratio=0.2)
        assert _severities(findings) == ["warn"]

    def test_none_inputs_warn_not_raise(self):
        findings = probe_locality(actual=None, shuffled=None, sorted_ratio=None)
        assert _severities(findings) == ["warn"]

    def test_no_locality_is_fail(self):
        findings = probe_locality(actual=1.05, shuffled=1.0, sorted_ratio=0.2)
        assert _severities(findings) == ["fail"]

    def test_strong_locality_is_ok(self):
        findings = probe_locality(actual=0.55, shuffled=1.0, sorted_ratio=0.3)
        assert _severities(findings) == ["ok"]
        assert findings[0].value == pytest.approx(0.642857, abs=1e-5)


class TestDensityCorrelation:
    def test_nan_correlation_warns(self):
        findings = probe_density_correlation(float("nan"))
        assert _severities(findings) == ["warn"]
        assert "undefined" in findings[0].message

    def test_positive_correlation_warns(self):
        assert probe_density_correlation(0.3)[0].severity == "warn"

    def test_anti_correlation_is_ok(self):
        assert probe_density_correlation(-0.4)[0].severity == "ok"


class TestLatencyRegime:
    def _matrix(self, n_slots=6, n_bins=30, median_bin=10, tail_bin=None):
        """Slots of 1000 actions centered on ``median_bin``; optionally one
        slot with 1.5% of its mass pushed out to ``tail_bin``."""
        matrix = np.zeros((n_slots, n_bins))
        matrix[:, median_bin] = 1000.0
        if tail_bin is not None:
            matrix[0, tail_bin] = 15.0
        return matrix

    def _centers(self, n_bins=30):
        return np.geomspace(50.0, 5000.0, n_bins)

    def test_uniform_slots_ok(self):
        findings = probe_latency_regime(self._matrix(), self._centers())
        assert _severities(findings) == ["ok", "ok"]
        probes_seen = {f.probe for f in findings}
        assert probes_seen == {"latency_tail_inflation", "latency_regime_shift"}

    def test_inflated_tail_warns(self):
        matrix = self._matrix(tail_bin=29)  # p99 lands ~20x the median
        findings = probe_latency_regime(matrix, self._centers())
        by_probe = {f.probe: f for f in findings}
        assert by_probe["latency_tail_inflation"].severity == "warn"

    def test_extreme_tail_fails(self):
        matrix = self._matrix(median_bin=2, tail_bin=29)  # p99 ~70x median
        findings = probe_latency_regime(matrix, self._centers())
        by_probe = {f.probe: f for f in findings}
        assert by_probe["latency_tail_inflation"].severity == "fail"

    def test_shifted_slot_median_warns(self):
        matrix = self._matrix()
        matrix[0] = 0.0
        matrix[0, 28] = 1000.0  # one slot lives two decades higher
        findings = probe_latency_regime(matrix, self._centers())
        by_probe = {f.probe: f for f in findings}
        assert by_probe["latency_regime_shift"].severity in ("warn", "fail")

    def test_custom_thresholds_tighten(self):
        matrix = self._matrix(tail_bin=14)
        loose = probe_latency_regime(matrix, self._centers())
        tight = probe_latency_regime(matrix, self._centers(),
                                     warn_tail_ratio=1.2, fail_tail_ratio=50.0)
        assert all(f.severity == "ok" for f in loose)
        by_probe = {f.probe: f for f in tight}
        assert by_probe["latency_tail_inflation"].severity == "warn"

    def test_empty_tensor_never_raises(self):
        findings = probe_latency_regime(np.zeros((0, 0)), np.array([]))
        assert _severities(findings) == ["warn"]

    def test_mismatched_bins_never_raises(self):
        findings = probe_latency_regime(np.ones((4, 5)), np.arange(7))
        assert _severities(findings) == ["warn"]

    def test_single_usable_slot_not_assessable(self):
        matrix = np.zeros((4, 10))
        matrix[2, 3] = 1000.0  # only one slot clears min_slot_count
        findings = probe_latency_regime(matrix, np.geomspace(50, 500, 10))
        assert _severities(findings) == ["ok"]
        assert "not assessable" in findings[0].message

    def test_nan_counts_never_raise(self):
        matrix = self._matrix().astype(float)
        matrix[1, :] = np.nan
        findings = probe_latency_regime(matrix, self._centers())
        assert all(f.severity in ("ok", "warn", "fail") for f in findings)


class TestProbeMissingness:
    def _streams(self, n=6000, seed=3):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 86400.0, n))
        latencies = rng.lognormal(5.5, 0.8, n)
        return times, latencies

    def test_unpaired_is_a_single_ok_not_assessable(self):
        times, latencies = self._streams()
        findings = probes.probe_missingness(times, latencies)
        assert _severities(findings) == ["ok"]
        assert "not assessable" in findings[0].message

    def test_empty_reference_warns(self):
        times, latencies = self._streams()
        findings = probes.probe_missingness(
            times, latencies,
            reference_times=np.array([]),
            reference_latencies_ms=np.array([]))
        assert _severities(findings) == ["warn"]

    def test_identical_streams_all_ok(self):
        times, latencies = self._streams()
        findings = probes.probe_missingness(
            times, latencies,
            reference_times=times, reference_latencies_ms=latencies)
        assert set(_severities(findings)) == {"ok"}
        assert {f.probe for f in findings} == {
            "missingness_depth", "missingness_informative",
            "sampling_irregularity",
        }

    def test_uniform_thinning_flags_depth_only(self):
        # Latency-blind, time-blind dropout: deep, but neither informative
        # nor irregular — the probe must not cry MNAR at random thinning.
        times, latencies = self._streams(n=12000)
        rng = np.random.default_rng(11)
        keep = rng.random(times.size) >= 0.5
        findings = probes.probe_missingness(
            times[keep], latencies[keep],
            reference_times=times, reference_latencies_ms=latencies)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["missingness_depth"].severity in ("warn", "fail")
        assert by_probe["missingness_informative"].severity == "ok"
        assert by_probe["sampling_irregularity"].severity == "ok"

    def test_mnar_dropout_flags_informativeness(self):
        times, latencies = self._streams(n=12000)
        knee = np.percentile(latencies, 75.0)
        rng = np.random.default_rng(11)
        # Keep fast rows, drop most of the latency tail.
        keep = (latencies < knee) | (rng.random(times.size) >= 0.7)
        findings = probes.probe_missingness(
            times[keep], latencies[keep],
            reference_times=times, reference_latencies_ms=latencies)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["missingness_informative"].severity in (
            "warn", "fail")

    def test_windowed_outage_flags_irregularity(self):
        times, latencies = self._streams(n=12000)
        # Collector off for the middle third of the span.
        lo, hi = 86400.0 / 3, 2 * 86400.0 / 3
        keep = (times < lo) | (times >= hi)
        findings = probes.probe_missingness(
            times[keep], latencies[keep],
            reference_times=times, reference_latencies_ms=latencies)
        by_probe = {f.probe: f for f in findings}
        assert by_probe["sampling_irregularity"].severity in ("warn", "fail")

    def test_duplication_never_aliases_to_mnar(self):
        # Retention above 1 is clamped: an over-represented stream is not
        # *missing* anything, so no missingness probe may flag it.
        times, latencies = self._streams()
        dup_times = np.concatenate([times, times])
        dup_lat = np.concatenate([latencies, latencies])
        order = np.argsort(dup_times, kind="stable")
        findings = probes.probe_missingness(
            dup_times[order], dup_lat[order],
            reference_times=times, reference_latencies_ms=latencies)
        assert set(_severities(findings)) == {"ok"}

    def test_never_raises_on_constant_latency(self):
        times, _ = self._streams(n=500)
        const = np.full(500, 250.0)
        findings = probes.probe_missingness(
            times, const, reference_times=times,
            reference_latencies_ms=const)
        assert all(f.severity in ("ok", "warn", "fail") for f in findings)


class TestPairedRegimeMargins:
    def test_defaults_match_recovery_constants(self):
        margins = probes.PAIRED_MARGINS
        assert margins["tail"] == 1.35
        assert margins["spread"] == 1.2
        assert margins["tail_fail_factor"] == 6.0
        assert margins["spread_fail_factor"] == 3.0

    def test_to_dict_is_json_plain(self):
        payload = json.loads(json.dumps(probes.PAIRED_MARGINS))
        assert payload == probes.PAIRED_MARGINS
        assert all(isinstance(v, float) for v in payload.values())


class TestEmit:
    def test_disabled_context_swallows_findings(self):
        probes.emit(probe_density_correlation(-0.4))
        assert obs.findings() == []

    def test_enabled_context_accumulates_and_counts(self):
        with obs.session(enabled=True):
            probes.emit(probe_density_correlation(-0.4))
            probes.emit(probe_locality(1.0, 1.0, 1.0))
            recorded = obs.findings()
            assert len(recorded) == 2
            assert recorded[0]["stage"] == "locality"
            snapshot = obs.metrics().snapshot()
            series = snapshot["autosens_health_findings_total"]["series"]
            assert sum(series.values()) == 2
