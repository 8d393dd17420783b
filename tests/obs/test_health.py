"""Health-report composition, serialization, and the faulted-run guarantee.

The acceptance property pinned at the end: a run whose slices are starved
(injected via :mod:`tests.faults` corruption plus a degrade policy) can
never report a clean bill of health — every recorded degradation becomes a
``warn`` finding on the synthetic ``runtime`` stage.
"""

import pytest

import repro.obs as obs
from repro.analysis.base import SMALL
from repro.analysis.experiments import run_experiment
from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from repro.errors import ReproError, SchemaError
from tests.faults import DEFAULT_FAULT_SPECS, FaultPlan, corrupt_jsonl
from repro.obs.health import (
    HealthReport,
    build_health_report,
    load_health_report,
    write_health_report,
)
from repro.obs.probes import emit
from repro.telemetry import IngestPolicy, read_jsonl, write_jsonl
from repro.workload import owa_scenario


def _finding(stage, severity, probe="p"):
    return {"probe": probe, "stage": stage, "severity": severity,
            "message": f"{stage} is {severity}"}


class TestSeverityAlgebra:
    def test_empty_report_is_ok(self):
        report = HealthReport([])
        assert report.verdict == "ok"
        assert report.stages == {}
        assert report.exit_code == 0
        assert report.counts() == {"ok": 0, "warn": 0, "fail": 0}

    def test_stage_verdict_is_worst_finding(self):
        report = HealthReport([
            _finding("alpha", "ok"),
            _finding("alpha", "warn"),
            _finding("preference", "ok"),
        ])
        assert report.stages == {"alpha": "warn", "preference": "ok"}
        assert report.verdict == "warn"
        assert report.exit_code == 0  # warnings are advisory

    def test_any_fail_dominates_and_flips_exit_code(self):
        report = HealthReport([
            _finding("alpha", "warn"),
            _finding("locality", "fail"),
        ])
        assert report.verdict == "fail"
        assert report.exit_code == 1

    def test_worst_findings_sorted_and_stable(self):
        report = HealthReport([
            _finding("a", "ok", probe="first-ok"),
            _finding("b", "fail", probe="the-fail"),
            _finding("c", "warn", probe="the-warn"),
        ])
        worst = report.worst_findings(limit=2)
        assert [f["probe"] for f in worst] == ["the-fail", "the-warn"]


class TestBuildReport:
    def test_degradations_become_runtime_warn_findings(self):
        report = build_health_report(
            findings=[_finding("alpha", "ok")],
            degradations=[{"kind": "starved_slice", "detail": "too few rows"}],
        )
        assert report.verdict == "warn"
        assert report.stages["runtime"] == "warn"
        runtime = [f for f in report.findings if f["stage"] == "runtime"]
        assert runtime[0]["context"]["kind"] == "starved_slice"

    def test_disabled_context_builds_an_empty_clean_report(self):
        assert not obs.enabled()
        report = build_health_report()
        assert report.verdict == "ok"
        assert report.findings == []

    def test_active_context_findings_and_degradations_are_picked_up(self):
        with obs.session(enabled=True):
            emit([_degenerate_locality_finding()])
            obs.record_degradation("starved_slice", detail="injected")
            report = build_health_report()
        assert {f["stage"] for f in report.findings} == {"locality", "runtime"}
        assert report.verdict == "warn"


def _degenerate_locality_finding():
    from repro.obs.probes import probe_locality

    return probe_locality(1.0, 1.0, 1.0)[0]


class TestSerialization:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = HealthReport([_finding("alpha", "warn")])
        path = write_health_report(report, tmp_path / "health.json")
        loaded = load_health_report(path)
        assert loaded.verdict == report.verdict
        assert loaded.findings == report.findings
        assert loaded.to_dict() == report.to_dict()

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99, "findings": []}')
        with pytest.raises(SchemaError):
            load_health_report(bad)
        with pytest.raises(SchemaError):
            load_health_report({"schema": 1, "findings": "not-a-list"})

    def test_load_accepts_parsed_dict(self):
        payload = HealthReport([_finding("alpha", "ok")]).to_dict()
        assert load_health_report(payload).verdict == "ok"


class TestEndToEnd:
    def test_run_experiment_attaches_health_to_outcome_and_manifest(self, tmp_path):
        with obs.session(enabled=True, deterministic=True):
            outcome = run_experiment(
                "bottleneck", seed=11, scale=SMALL,
                manifest_out=tmp_path / "manifest.json")
        assert isinstance(outcome.health, dict)
        assert outcome.health["verdict"] == "ok"
        assert outcome.health["findings"]
        manifest = obs.load_manifest(tmp_path / "manifest.json")
        assert manifest["health"]["verdict"] == "ok"

    def test_faulted_run_never_reports_clean(self, tmp_path):
        """Starved slices injected via tests.faults must surface as
        warn/fail findings — the report cannot say ``ok``."""
        result = owa_scenario(
            seed=7, duration_days=1.0, n_users=30,
            candidates_per_user_day=20.0,
        ).generate()
        clean = tmp_path / "clean.jsonl"
        write_jsonl(result.logs.iter_records(), clean)
        dirty = tmp_path / "dirty.jsonl"
        specs = tuple(spec() for _, spec in sorted(DEFAULT_FAULT_SPECS.items()))
        corrupt_jsonl(clean, dirty, FaultPlan(specs=specs, seed=99))

        with obs.session(enabled=True):
            logs = read_jsonl(dirty, policy=IngestPolicy(
                mode="quarantine", max_bad_share=1.0,
                quarantine_path=tmp_path / "rejects.jsonl"))
            engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy())
            try:
                engine.curves_by_action(logs)
            except ReproError:
                pass  # a fully starved sweep may refuse; degradations remain
            assert obs.current().degradations, "fault injection drew no blood"
            report = build_health_report()

        assert report.verdict in ("warn", "fail")
        bad = [f for f in report.findings
               if f["severity"] in ("warn", "fail")]
        assert bad, "a faulted run reported a clean bill of health"
        assert any(f["stage"] == "runtime" for f in bad)
