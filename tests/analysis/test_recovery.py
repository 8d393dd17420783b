"""Ground-truth recovery gates: fixtures, verdicts, determinism, CLI.

The contract pinned here (the queue backend's acceptance criterion): every
incident fixture either recovers the incident-free NLP curve within
tolerance or surfaces an explicit regime/health warning. A clean bill of
health on a drifted curve — silent bias — fails the gate.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.paired import (
    VERDICT_EXPLAINED,
    VERDICT_SILENT_BIAS,
    paired_regime_findings,
)
from repro.analysis.recovery import (
    RECOVERY_FIXTURES,
    RECOVERY_SCALES,
    VERDICT_RECOVERED,
    run_recovery,
    run_recovery_suite,
)
from repro.errors import ConfigError

GOLDEN_DIR = Path(__file__).parents[1] / "workload" / "golden" / "recovery"


@pytest.fixture(scope="module")
def default_suite(tmp_path_factory):
    """The whole fixture matrix, run once for the whole module."""
    out_dir = tmp_path_factory.mktemp("recovery")
    outcomes = run_recovery_suite(out_dir=out_dir)
    return outcomes, out_dir


def _fake_logs(latencies, times=None):
    latencies = np.asarray(latencies, dtype=float)
    if times is None:
        # Spread uniformly over a day so every hour-of-day slot is hit.
        times = np.linspace(0.0, 86400.0, latencies.size, endpoint=False)
    return SimpleNamespace(times=np.asarray(times, dtype=float),
                           latencies_ms=latencies)


class TestFixtureRegistry:
    def test_catalog_covers_every_incident_class(self):
        assert set(RECOVERY_FIXTURES) == {
            "load-spike", "slow-dependency", "regional-degradation",
            "autoscale-step", "retry-storm", "composite",
        }

    def test_fixtures_well_formed(self):
        for fixture in RECOVERY_FIXTURES.values():
            assert fixture.specs
            assert fixture.tolerance > 0
            assert fixture.compare_max_ms > 0

    def test_scenarios_differ_only_in_incidents(self):
        fixture = RECOVERY_FIXTURES["load-spike"]
        clean = fixture.scenario(7, "small", with_incidents=False)
        incident = fixture.scenario(7, "small", with_incidents=True)
        assert clean.config.latency_backend == "queue"
        assert incident.config.latency_backend == "queue"
        assert not clean.config.incident_plan.specs
        assert incident.config.incident_plan.specs == fixture.specs

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            RECOVERY_FIXTURES["load-spike"].scenario(7, "huge", True)

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ConfigError):
            run_recovery("no-such-fixture")

    def test_scales_defined(self):
        assert set(RECOVERY_SCALES) == {"small", "full"}


class TestPairedRegimeDetection:
    def test_identical_logs_not_flagged(self):
        rng = np.random.default_rng(0)
        latencies = rng.lognormal(np.log(200.0), 0.4, size=20_000)
        logs = _fake_logs(latencies)
        findings = paired_regime_findings(logs, logs)
        assert all(f["severity"] == "ok" for f in findings)
        assert all("clean_baseline" in f["context"] for f in findings)

    def test_window_contamination_flagged(self):
        rng = np.random.default_rng(1)
        latencies = rng.lognormal(np.log(200.0), 0.4, size=20_000)
        clean = _fake_logs(latencies)
        contaminated = latencies.copy()
        # A two-hour incident: 8x latency for samples in hours 10-12.
        hours = (clean.times // 3600) % 24
        window = (hours >= 10) & (hours < 12)
        contaminated[window] *= 8.0
        findings = paired_regime_findings(clean, _fake_logs(contaminated))
        assert any(f["severity"] != "ok" for f in findings)

    def test_tiny_logs_fall_back_without_raising(self):
        tiny = _fake_logs([100.0, 200.0, 300.0])
        findings = paired_regime_findings(tiny, tiny)
        assert findings  # unpaired fallback still reports something
        assert all("severity" in f for f in findings)


class TestRecoveryRun:
    @pytest.fixture(scope="class")
    def autoscale_outcome(self):
        return run_recovery("autoscale-step", seed=7, scale="small")

    def test_mild_incident_recovers(self, autoscale_outcome):
        outcome = autoscale_outcome
        assert outcome.verdict == VERDICT_RECOVERED
        assert outcome.gate_passed
        assert outcome.max_abs_nlp_diff <= outcome.tolerance
        assert outcome.n_compared_bins > 0

    def test_ground_truth_windows_annotated(self, autoscale_outcome):
        windows = autoscale_outcome.incident_windows
        assert len(windows) == 1
        assert windows[0]["scenario"] == "autoscale-step"
        assert windows[0]["end_s"] > windows[0]["start_s"]

    def test_outcome_serializes(self, autoscale_outcome):
        payload = autoscale_outcome.to_dict()
        assert payload["schema"] == "autosens.recovery/v1"
        assert payload["verdict"] in (
            VERDICT_RECOVERED, VERDICT_EXPLAINED, VERDICT_SILENT_BIAS)
        json.dumps(payload)  # JSON-stable, no numpy leakage

    def test_severe_incident_recovers_or_warns(self):
        # slow-dependency drifts well past tolerance; the paired regime
        # probe must catch it — never a silent clean-but-biased verdict.
        outcome = run_recovery("slow-dependency", seed=7, scale="small")
        assert outcome.verdict == VERDICT_EXPLAINED
        assert outcome.gate_passed
        flagged = [f for f in outcome.regime if f["severity"] != "ok"]
        assert flagged

    def test_serial_process_bit_identical(self):
        serial = run_recovery("autoscale-step", seed=7, scale="small",
                              executor="serial")
        process = run_recovery("autoscale-step", seed=7, scale="small",
                               executor="process")
        a, b = serial.to_dict(), process.to_dict()
        a.pop("executor"), b.pop("executor")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert np.array_equal(serial.curve.nlp, process.curve.nlp,
                              equal_nan=True)


class TestRecoverySuite:
    def test_suite_writes_diffable_artifacts(self, tmp_path):
        outcomes = run_recovery_suite(
            ["autoscale-step"], seed=7, scale="small", out_dir=tmp_path)
        assert set(outcomes) == {"autoscale-step"}
        curve_path = tmp_path / "autoscale-step.curve.json"
        verdict_path = tmp_path / "autoscale-step.recovery.json"
        summary_path = tmp_path / "summary.json"
        assert curve_path.exists() and verdict_path.exists()
        summary = json.loads(summary_path.read_text())
        assert summary["gate_passed"] is True
        assert summary["fixtures"]["autoscale-step"]["verdict"] == VERDICT_RECOVERED

        # The curve artifact is obs-diff compatible and self-diffs clean.
        from repro.obs import diff_paths, diff_exit_code

        report = diff_paths(curve_path, curve_path)
        assert report["kind"] == "curve"
        assert diff_exit_code(report) == 0


class TestGoldens:
    def test_verdicts_and_summary_match_goldens_byte_for_byte(
            self, default_suite):
        # The same check CI's `cmp` step performs, pinned locally.
        _, out_dir = default_suite
        verdicts = [f"{name}.recovery.json" for name in sorted(RECOVERY_FIXTURES)]
        assert sorted(p.name for p in GOLDEN_DIR.glob("*.recovery.json")) \
            == verdicts
        for file in verdicts + ["summary.json"]:
            assert ((out_dir / file).read_text()
                    == (GOLDEN_DIR / file).read_text()), \
                f"{file} drifted from golden"

    def test_curves_obs_diff_clean_against_goldens(self, default_suite):
        from repro.obs import diff_exit_code, diff_paths

        _, out_dir = default_suite
        for name in sorted(RECOVERY_FIXTURES):
            file = f"{name}.curve.json"
            report = diff_paths(GOLDEN_DIR / file, out_dir / file)
            assert report["kind"] == "curve"
            assert diff_exit_code(report) == 0, f"{file} drifted from golden"


class TestRecoverCLI:
    def test_unknown_fixture_exits_2(self, capsys):
        from repro.cli.main import main

        assert main(["recover", "no-such-fixture"]) == 2

    def test_baseline_dir_requires_out_dir(self):
        from repro.cli.main import main

        assert main(["recover", "autoscale-step",
                     "--baseline-dir", "/tmp/nowhere"]) == 2

    def test_single_fixture_gate_passes(self, tmp_path, capsys):
        from repro.cli.main import main

        out_dir = tmp_path / "run"
        assert main(["recover", "autoscale-step",
                     "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "recovery gate: PASS" in captured.out
        # Second run gates cleanly against the first as baseline
        # (deterministic: the curves are byte-identical).
        cand = tmp_path / "cand"
        assert main(["recover", "autoscale-step", "--out-dir", str(cand),
                     "--baseline-dir", str(out_dir)]) == 0
        assert "no baseline drift" in capsys.readouterr().out

    def test_missing_baseline_fails_gate(self, tmp_path, capsys):
        from repro.cli.main import main

        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["recover", "autoscale-step",
                     "--out-dir", str(tmp_path / "out"),
                     "--baseline-dir", str(empty)]) == 1
        assert "FAIL" in capsys.readouterr().out
