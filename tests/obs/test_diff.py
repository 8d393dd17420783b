"""Cross-run regression detection: classification, tolerances, exit codes.

The acceptance property pinned first: a self-comparison of any artifact is
100 % ``unchanged``, because every comparator takes an exact-equality fast
path before any tolerance math.
"""

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.errors import SchemaError
from repro.obs.diff import (
    SPAN_SECONDS_FLOOR,
    diff_artifacts,
    diff_exit_code,
    diff_paths,
    direction,
    load_artifact,
    render_diff,
    series,
    sniff_kind,
    worsened,
    write_diff,
)


def _manifest(tmp_path, name="manifest.json", **overrides):
    manifest = obs.build_manifest(
        experiment_id="fig4", seed=3,
        config_fingerprint=(("n_users", 150),),
        degradations=overrides.pop("degradations", []),
        metrics=overrides.pop("metrics", {}),
        deterministic=True,
        extra=overrides,
    )
    return obs.write_manifest(manifest, tmp_path / name)


def _counters(**values):
    """A metrics snapshot of one unlabelled counter per name."""
    return {name: {"kind": "counter", "series": {"{}": value}}
            for name, value in values.items()}


class TestSelfDiff:
    def test_manifest_self_diff_is_all_unchanged(self, tmp_path):
        path = _manifest(tmp_path, metrics={
            "autosens_cache_total": {
                "kind": "counter", "help": "",
                "series": {'{outcome="hit"}': 31, '{outcome="miss"}': 2},
            },
        })
        report = diff_paths(path, path)
        summary = report["summary"]
        assert summary["regressed"] == 0
        assert summary["improved"] == 0
        assert summary["added"] == 0
        assert summary["removed"] == 0
        assert summary["unchanged"] == len(report["entries"]) > 0
        assert diff_exit_code(report) == 0

    def test_fresh_deterministic_run_matches_committed_baseline(self, tmp_path):
        """The CI ``obs-health`` property: a deterministic seed-11 smoke run
        diffs 100 % unchanged against the committed baseline manifest.
        If this fails after an intentional pipeline change, regenerate
        ``tests/obs/golden/baseline_manifest.json`` (see OBSERVABILITY.md)."""
        from repro.cli.main import main

        manifest = tmp_path / "manifest.json"
        assert main([
            "experiment", "bottleneck", "--scale", "small", "--seed", "11",
            "--no-plots", "--deterministic-trace",
            "--manifest-out", str(manifest),
        ]) == 0
        baseline = Path(__file__).parent / "golden" / "baseline_manifest.json"
        report = diff_paths(baseline, manifest)
        summary = report["summary"]
        assert summary["unchanged"] == len(report["entries"]) > 0, summary
        assert diff_exit_code(report) == 0


class TestClassification:
    def test_direction_rule(self):
        # One rule names each series' better side and its tolerance.
        assert direction("span_seconds[alpha]") == ("lower", "rel")
        assert direction("span_share[alpha]") == ("lower", "share")
        assert direction("span_count[alpha]") == ("pinned", "exact")
        assert direction("health.warn") == ("lower", "exact")
        assert direction("curve.n_valid_bins") == ("higher", "exact")
        assert direction("curve.nlp[3]") == ("pinned", "curve")
        assert direction("cell[0.5].gate_passed") == ("higher", "exact")
        assert direction("cell[0.5].bias_linf") == ("pinned", "curve")
        assert direction('metrics.autosens_task_retries_total{}') == \
            ("lower", "rel")
        assert worsened("span_seconds[alpha]", up=True)
        assert not worsened("curve.n_valid_bins", up=True)
        assert worsened("curve.nlp[3]", up=False)

    def test_metric_counters_of_bad_events_are_lower_better(self):
        def snapshot(failures, retries, m):
            return {**_counters(autosens_task_failures_total=failures,
                                autosens_task_retries_total=retries),
                    "m": {"kind": "counter", "series": {
                        '{outcome="hit"}': m, '{kind="other"}': m}}}

        report = diff_artifacts(snapshot(100.0, 200.0, 100.0),
                                snapshot(200.0, 100.0, 200.0))
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["autosens_task_failures_total{}"] == "regressed"
        assert by_key["autosens_task_retries_total{}"] == "improved"
        # Any other metric is pinned: drift beyond tolerance regresses,
        # whatever its labels say.
        assert by_key['m{outcome="hit"}'] == "regressed"
        assert by_key['m{kind="other"}'] == "regressed"

    def test_drift_within_tolerance_is_unchanged(self):
        a = {"m": {"kind": "counter", "series": {"{}": 100.0}}}
        b = {"m": {"kind": "counter", "series": {"{}": 105.0}}}
        report = diff_artifacts(a, b, rel_tol=0.10)
        assert report["entries"][0]["classification"] == "unchanged"
        report = diff_artifacts(a, b, rel_tol=0.01)
        assert report["entries"][0]["classification"] == "regressed"

    def test_added_and_removed_series(self):
        a = {"m": {"kind": "counter", "series": {"{a}": 1.0}}}
        b = {"m": {"kind": "counter", "series": {"{b}": 1.0}}}
        report = diff_artifacts(a, b)
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["m{a}"] == "removed"
        assert by_key["m{b}"] == "added"
        assert diff_exit_code(report) == 1  # removed counts as drift


class TestManifestDiff:
    def test_new_degradations_regress(self, tmp_path):
        a = _manifest(tmp_path, "a.json")
        b = _manifest(tmp_path, "b.json",
                      degradations=[{"kind": "starved_slice"}])
        report = diff_paths(a, b)
        entry = next(e for e in report["entries"]
                     if e["key"] == "degradations")
        assert entry["classification"] == "regressed"
        assert diff_exit_code(report) == 1

    def test_health_verdict_regression_is_flagged(self, tmp_path):
        from repro.obs.health import HealthReport

        def finding(severity):
            return {"probe": "p", "stage": "preference",
                    "severity": severity, "message": severity}

        ok = HealthReport([finding("ok")] * 5).to_dict()
        warn = HealthReport([finding("ok")] * 4 + [finding("warn")]).to_dict()
        a = _manifest(tmp_path, "a.json", health=ok)
        b = _manifest(tmp_path, "b.json", health=warn)
        report = diff_paths(a, b)
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["health.verdict_rank"] == "regressed"
        assert by_key["health.warn"] == "regressed"

    def test_span_share_shift_is_detected(self, tmp_path):
        a = _manifest(tmp_path, "a.json", span_timings={
            "alpha": {"count": 4, "seconds": 1.0},
            "sweep": {"count": 1, "seconds": 9.0},
        })
        b = _manifest(tmp_path, "b.json", span_timings={
            "alpha": {"count": 4, "seconds": 9.0},
            "sweep": {"count": 1, "seconds": 1.0},
        })
        report = diff_paths(a, b)
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["span_share[alpha]"] == "regressed"
        assert by_key["span_share[sweep]"] == "improved"
        assert by_key["span_seconds[alpha]"] == "regressed"
        assert by_key["span_seconds[sweep]"] == "improved"
        assert by_key["span_count[alpha]"] == "unchanged"

    def test_sub_floor_span_jitter_is_unchanged(self, tmp_path):
        # Two wall-clock runs of the same work: every span is under the
        # floor and moves by 40 %, as scheduler noise does on a small host.
        # (Shares keep their own tolerance; these stay inside it.)
        spans = {"alpha": (0.0008, 0.6), "slice": (0.0004, 1.4),
                 "slotted_counts": (0.0137, 0.6),
                 "preference_curve": (0.0234, 1.4),
                 "experiment": (0.0534, 1.4)}
        assert max(s for s, _ in spans.values()) < SPAN_SECONDS_FLOOR
        a = _manifest(tmp_path, "a.json", span_timings={
            name: {"count": 1, "seconds": s} for name, (s, _) in spans.items()})
        b = _manifest(tmp_path, "b.json", span_timings={
            name: {"count": 1, "seconds": s * k}
            for name, (s, k) in spans.items()})
        report = diff_paths(a, b)
        assert report["summary"]["regressed"] == 0
        assert report["summary"]["improved"] == 0
        assert diff_exit_code(report) == 0

    def test_a_doubled_span_above_the_floor_regresses(self, tmp_path):
        seconds = 2 * SPAN_SECONDS_FLOOR
        a = _manifest(tmp_path, "a.json", span_timings={
            "alpha": {"count": 1, "seconds": seconds}})
        b = _manifest(tmp_path, "b.json", span_timings={
            "alpha": {"count": 1, "seconds": 2 * seconds}})
        report = diff_paths(a, b)
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["span_seconds[alpha]"] == "regressed"
        assert diff_exit_code(report) == 1

    def test_the_floor_is_for_seconds_only(self):
        # A tiny metric total moving far still counts.
        a = {"run_id": "x", "metrics": _counters(autosens_failures_total=0.001)}
        b = {"run_id": "x", "metrics": _counters(autosens_failures_total=0.002)}
        (entry,) = [e for e in diff_artifacts(a, b)["entries"]
                    if "failures" in e["key"]]
        assert entry["classification"] == "regressed"

    def test_run_directory_resolves_to_its_manifest(self, tmp_path):
        _manifest(tmp_path)
        report = diff_paths(tmp_path, tmp_path)
        assert report["kind"] == "manifest"


class TestCurveDiff:
    def _curve(self, nlp):
        return {"series": {"nlp": nlp}, "bins": list(range(len(nlp)))}

    def test_identical_curves_unchanged(self):
        a = self._curve([1.0, 0.8, None, 0.5])
        report = diff_artifacts(a, json.loads(json.dumps(a)))
        assert report["kind"] == "curve"
        assert report["summary"]["regressed"] == 0

    def test_deviation_beyond_tolerance_regresses(self):
        a = self._curve([1.0, 0.8, 0.5])
        b = self._curve([1.0, 0.8, 0.4])
        assert diff_artifacts(a, b, curve_tol=0.02)["summary"]["regressed"] == 1
        assert diff_artifacts(a, b, curve_tol=0.2)["summary"]["regressed"] == 0

    def test_lost_support_regresses(self):
        a = self._curve([1.0, 0.8, 0.5])
        b = self._curve([1.0, None, None])
        report = diff_artifacts(a, b)
        entry = next(e for e in report["entries"]
                     if e["key"] == "curve.n_valid_bins")
        assert entry["classification"] == "regressed"


class TestPlumbing:
    def test_kind_sniffing(self):
        with pytest.raises(SchemaError):
            sniff_kind({"schema": 1, "scales": {}})
        assert sniff_kind({"run_id": "x"}) == "manifest"
        assert sniff_kind({"verdict": "ok", "findings": []}) == "health"
        assert sniff_kind({"series": {"nlp": []}}) == "curve"
        with pytest.raises(SchemaError):
            sniff_kind({"what": "ever"})

    def test_kind_mismatch_refuses(self):
        with pytest.raises(SchemaError):
            diff_artifacts({"run_id": "x"}, {"verdict": "ok", "findings": []})

    def test_render_lists_regressions_first(self):
        a = _counters(autosens_task_failures_total=1.0,
                      autosens_task_retries_total=50.0)
        b = _counters(autosens_task_failures_total=50.0,
                      autosens_task_retries_total=1.0)
        text = render_diff(diff_artifacts(a, b))
        regressed_at = text.index("[regressed]")
        improved_at = text.index("[ improved]")
        assert regressed_at < improved_at
        assert "summary:" in text

    def test_write_diff_roundtrip(self, tmp_path):
        report = diff_artifacts({"run_id": "x"}, {"run_id": "x"})
        path = write_diff(report, tmp_path / "diff.json")
        assert json.loads(path.read_text()) == report

    def test_load_artifact_parses_each_file_once(self, tmp_path, monkeypatch):
        path = _manifest(tmp_path)
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        assert load_artifact(path)["run_id"]
        assert reads == [path]

    def test_load_artifact_names_the_invalid_file(self, tmp_path):
        path = _manifest(tmp_path)
        manifest = json.loads(path.read_text())
        manifest["schema"] = -1
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=f"^{path}: schema != "):
            load_artifact(path)
        frontier = tmp_path / "frontier.json"
        frontier.write_text(json.dumps({"fixture": "f", "cells": []}))
        with pytest.raises(SchemaError, match=f"^{frontier}: "):
            load_artifact(frontier)

    def test_load_artifact_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(SchemaError):
            load_artifact(bad)
        with pytest.raises(SchemaError):
            load_artifact(tmp_path / "missing.json")


REGISTRIES = Path(__file__).parent / "golden" / "registry"


def _spans_registry(root, preference_seconds):
    """A registry whose runs differ only in one span's seconds."""
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(root)
    for seconds in preference_seconds:
        run_dir = registry.new_run_dir("exp")
        _manifest(run_dir, span_timings={
            "ingest": {"count": 1, "seconds": 1.0},
            "preference_compute": {"count": 1, "seconds": seconds},
        })
        registry.record(run_dir, run_id="exp", wall_s=1.0)
    return registry


class TestOneEngine:
    """``obs diff`` and ``watch`` read one extractor and one rule."""

    def test_watch_series_are_the_self_diff_entries(self):
        from repro.obs.registry import RunRegistry
        from repro.obs.watch import collect_series

        registry = RunRegistry(REGISTRIES / "clean")
        watched = set(collect_series(registry)) - {"wall_s"}
        manifests = sorted((REGISTRIES / "clean").glob("*/manifest.json"))
        assert len(manifests) == 8
        for path in manifests:
            report = diff_paths(path, path)
            assert {e["key"] for e in report["entries"]} == watched
            assert set(series(json.loads(path.read_text()))) == watched

    @pytest.mark.parametrize("step,classification,met", [
        (0.5, "improved", True), (1.6, "regressed", False)])
    def test_diff_and_watch_agree_on_a_step(self, tmp_path, step,
                                            classification, met):
        from repro.obs.watch import build_watch_report, load_slo_config

        history = [2.0, 2.02, 1.98, 2.01, 1.99] + [2.0 * step] * 3
        registry = _spans_registry(tmp_path / "runs", history)
        first, last = (registry.run_path(e) for e in
                       (registry.entries()[0], registry.entries()[-1]))
        report = diff_paths(first, last)
        by_key = {e["key"]: e["classification"] for e in report["entries"]}
        assert by_key["span_seconds[preference_compute]"] == classification
        slos = load_slo_config({"slo": [
            {"name": "spans", "series": "span_seconds[preference_compute]",
             "objective": "stable", "window": 16}]})
        watch = build_watch_report(registry, slos=slos)
        (detail,) = watch["slo"]["slos"][0]["series"]
        assert detail["state"] == "stepped"
        assert detail["met"] is met

    def test_watch_artifacts_are_not_diffable(self, tmp_path, capsys):
        from repro.cli.main import main

        out = tmp_path / "watch"
        assert main(["watch", str(REGISTRIES / "clean"),
                     "--out-dir", str(out)]) == 0
        for name in ("baseline", "trend", "slo"):
            path = out / f"{name}.json"
            assert main(["obs", "diff", str(path), str(path)]) == 3
        assert "unrecognized artifact" in capsys.readouterr().err


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", [
        "write_diff", "write_manifest", "write_profile",
        "write_watch_artifact", "write_health_report"])
    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, writer):
        from repro.obs.health import HealthReport
        from repro.obs.watch import write_watch_artifact

        circular = {"run_id": "x"}
        circular["self"] = circular  # no JSON encoder can serialize this
        write, payload = {
            "write_diff": (write_diff, circular),
            "write_manifest": (obs.write_manifest, circular),
            "write_profile": (obs.write_profile, circular),
            "write_watch_artifact": (write_watch_artifact, circular),
            "write_health_report": (obs.write_health_report, HealthReport([{
                "probe": "p", "stage": "s", "severity": "ok",
                "message": "m", "context": circular}])),
        }[writer]
        with pytest.raises(ValueError):
            write(payload, tmp_path / "artifact.json")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_out_creates_its_directory(self, tmp_path):
        path = tmp_path / "new" / "manifest.json"
        obs.write_manifest({"run_id": "x"}, path)
        assert json.loads(path.read_text()) == {"run_id": "x"}
