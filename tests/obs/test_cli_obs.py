"""CLI observability flags: artifact emission, byte-identity, obs summary."""

import json

import pytest

from repro.cli.main import main
from repro.obs.profile import PROFILE_SCHEMA


def _run(tmp_path, tag, seed="11", extra_flags=()):
    """One instrumented smoke experiment; returns the artifact paths."""
    trace = tmp_path / f"{tag}-trace.json"
    metrics = tmp_path / f"{tag}-metrics.prom"
    manifest = tmp_path / f"{tag}-manifest.json"
    status = main([
        "experiment", "bottleneck", "--scale", "small", "--seed", seed,
        "--no-plots",
        "--trace-out", str(trace),
        "--metrics-out", str(metrics),
        "--manifest-out", str(manifest),
        "--deterministic-trace",
        *extra_flags,
    ])
    assert status == 0
    return trace, metrics, manifest


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("obs-cli"), "run")


class TestArtifacts:
    def test_trace_is_a_chrome_trace(self, artifacts):
        trace, _, _ = artifacts
        payload = json.loads(trace.read_text())
        assert payload["otherData"]["schema"] == 1
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"experiment", "preference_curve"} <= {e["name"] for e in events}

    def test_metrics_are_prometheus_text(self, artifacts):
        _, metrics, _ = artifacts
        text = metrics.read_text()
        assert "# TYPE autosens_health_findings_total counter" in text

    def test_manifest_names_the_experiment(self, artifacts):
        _, _, manifest = artifacts
        data = json.loads(manifest.read_text())
        assert data["experiment_id"] == "bottleneck"
        assert data["seed"] == 11
        assert data["deterministic"] is True
        assert "created_at" not in data

    def test_obs_summary_renders_the_manifest(self, artifacts, capsys):
        _, _, manifest = artifacts
        assert main(["obs", "summary", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "run id" in out

    def test_obs_summary_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["obs", "summary", str(bad)]) != 0


class TestByteIdentity:
    def test_two_deterministic_runs_emit_identical_artifacts(self, tmp_path):
        first = _run(tmp_path, "a")
        second = _run(tmp_path, "b")
        for one, two in zip(first, second):
            assert one.read_bytes() == two.read_bytes(), one.name


class TestHealthAndProfileFlags:
    def test_health_out_writes_an_ok_report(self, tmp_path):
        health = tmp_path / "health.json"
        _run(tmp_path, "h", extra_flags=("--health-out", str(health)))
        payload = json.loads(health.read_text())
        assert payload["verdict"] == "ok"
        assert payload["findings"]

    def test_manifest_embeds_the_health_report(self, artifacts):
        _, _, manifest = artifacts
        data = json.loads(manifest.read_text())
        assert data["health"]["verdict"] == "ok"
        assert data["span_timings"]

    def test_profile_out_writes_span_attribution(self, tmp_path):
        profile = tmp_path / "profile.json"
        _run(tmp_path, "p", extra_flags=("--profile-out", str(profile)))
        payload = json.loads(profile.read_text())
        assert payload["schema"] == PROFILE_SCHEMA
        assert "experiment" in payload["spans"]
        assert payload["top"]

    def test_profiling_leaves_other_artifacts_byte_identical(self, tmp_path):
        """The identity guarantee, end to end through the CLI: a profiled
        run's trace/metrics/manifest match an unprofiled run byte for byte."""
        plain = _run(tmp_path, "plain")
        profiled = _run(
            tmp_path, "profiled",
            extra_flags=("--profile-out", str(tmp_path / "prof.json")))
        for one, two in zip(plain, profiled):
            assert one.read_bytes() == two.read_bytes(), one.name


class TestDoctor:
    def test_doctor_on_a_clean_run_exits_ok(self, artifacts, capsys):
        _, _, manifest = artifacts
        assert main(["doctor", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_doctor_accepts_a_run_directory(self, tmp_path, capsys):
        _run(tmp_path, "run", extra_flags=(
            "--health-out", str(tmp_path / "run-health.json")))
        (tmp_path / "run-manifest.json").rename(tmp_path / "manifest.json")
        assert main(["doctor", str(tmp_path)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_doctor_strict_flags_warnings(self, tmp_path, capsys):
        from repro.obs.health import HealthReport, write_health_report

        report = HealthReport([{
            "probe": "p", "stage": "runtime", "severity": "warn",
            "message": "synthetic warning",
        }])
        path = write_health_report(report, tmp_path / "health.json")
        assert main(["doctor", str(path)]) == 0  # warnings are advisory
        assert main(["doctor", str(path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "synthetic warning" in out

    def test_doctor_fail_verdict_exits_nonzero(self, tmp_path):
        from repro.obs.health import HealthReport, write_health_report

        report = HealthReport([{
            "probe": "p", "stage": "preference", "severity": "fail",
            "message": "no support",
        }])
        path = write_health_report(report, tmp_path / "health.json")
        assert main(["doctor", str(path)]) == 1

    def test_doctor_on_a_manifest_without_health_is_a_schema_error(
            self, tmp_path):
        import repro.obs as obs

        manifest = obs.build_manifest(
            experiment_id="x", seed=0, deterministic=True)
        path = obs.write_manifest(manifest, tmp_path / "manifest.json")
        assert main(["doctor", str(path)]) == 3


class TestObsDiffCommand:
    def test_self_diff_exits_zero_and_reports_unchanged(
            self, artifacts, capsys):
        _, _, manifest = artifacts
        assert main(["obs", "diff", str(manifest), str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "regressed=0" in out

    def test_diff_out_writes_the_report(self, artifacts, tmp_path):
        _, _, manifest = artifacts
        out_path = tmp_path / "diff.json"
        assert main(["obs", "diff", str(manifest), str(manifest),
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["regressed"] == 0

    def test_regression_exits_nonzero(self, artifacts, tmp_path, capsys):
        _, _, manifest = artifacts
        data = json.loads(manifest.read_text())
        data["degradations"] = [{"kind": "starved_slice"}]
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(data))
        assert main(["obs", "diff", str(manifest), str(worse)]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_kind_mismatch_is_a_schema_error(self, artifacts, tmp_path):
        _, _, manifest = artifacts
        health = tmp_path / "health.json"
        health.write_text(json.dumps(
            {"schema": 1, "verdict": "ok", "findings": [],
             "counts": {"ok": 0, "warn": 0, "fail": 0}, "stages": {}}))
        assert main(["obs", "diff", str(manifest), str(health)]) == 3


class TestJsonlTrace:
    def test_jsonl_suffix_selects_span_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "experiment", "table1", "--no-plots",
            "--trace-out", str(trace), "--deterministic-trace",
        ]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["schema"] == 1
            assert "dur_us" in record


class TestServeObs:
    def test_served_run_artifacts_are_byte_identical(self, artifacts, tmp_path):
        base_trace, base_metrics, base_manifest = artifacts
        trace, metrics, manifest = _run(
            tmp_path, "served",
            extra_flags=("--serve-obs", "127.0.0.1:0"))
        assert trace.read_bytes() == base_trace.read_bytes()
        assert metrics.read_bytes() == base_metrics.read_bytes()
        assert manifest.read_bytes() == base_manifest.read_bytes()

    def test_bad_address_is_a_config_error(self, tmp_path, capsys):
        status = main([
            "experiment", "bottleneck", "--scale", "small", "--seed", "11",
            "--no-plots", "--serve-obs", "not-a-port",
        ])
        assert status == 2
        assert "serve-obs" in capsys.readouterr().err


class TestRunRegistryCli:
    def _record(self, runs_dir, seed="11"):
        status = main([
            "experiment", "bottleneck", "--scale", "small", "--seed", seed,
            "--no-plots", "--deterministic-trace",
            "--serve-obs", "127.0.0.1:0",
            "--runs-dir", str(runs_dir),
        ])
        assert status == 0

    def test_recorded_runs_ls_show_and_diff(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        self._record(runs_dir)
        self._record(runs_dir)
        capsys.readouterr()

        assert main(["runs", "ls", "--runs-dir", str(runs_dir)]) == 0
        table = capsys.readouterr().out
        assert "0001-experiment-11" in table and "0002-experiment-11" in table

        assert main(["runs", "show", "1", "--runs-dir", str(runs_dir)]) == 0
        shown = capsys.readouterr().out
        assert "experiment:11" in shown and "health verdict" in shown

        # Two identical deterministic runs: every tracked dimension unchanged.
        assert main(["runs", "diff", "1", "2",
                     "--runs-dir", str(runs_dir)]) == 0
        assert "regressed=0" in capsys.readouterr().out

        with pytest.raises(SystemExit) as exc:
            main(["runs", "trend", "--runs-dir", str(runs_dir)])
        assert exc.value.code == 2

    def test_recorded_dir_holds_the_telemetry_artifacts(self, tmp_path):
        runs_dir = tmp_path / "runs"
        self._record(runs_dir)
        run_dir = runs_dir / "0001-experiment-11"
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "metrics.prom").is_file()
        progress = json.loads((run_dir / "progress.json").read_text())
        assert progress["state"] == "done"
        assert progress["run_id"] == "experiment:11"
        assert not (run_dir / "events.ndjson").exists()

    def test_top_renders_a_recorded_run(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        self._record(runs_dir)
        capsys.readouterr()
        assert main(["top", str(runs_dir / "0001-experiment-11"),
                     "--once"]) == 0
        frame = capsys.readouterr().out
        assert "autosens top" in frame and "done" in frame

    def test_unknown_selector_is_a_config_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        self._record(runs_dir)
        capsys.readouterr()
        assert main(["runs", "show", "nope",
                     "--runs-dir", str(runs_dir)]) == 2


class TestObsSummaryFormat:
    def test_json_format_emits_field_value_pairs(self, artifacts, capsys):
        _, _, manifest = artifacts
        assert main(["obs", "summary", str(manifest),
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        fields = dict(rows)
        assert fields["experiment"] == "bottleneck"
        assert fields["health verdict"] == "ok"

    def test_table_stays_the_default(self, artifacts, capsys):
        _, _, manifest = artifacts
        assert main(["obs", "summary", str(manifest)]) == 0
        assert "| " in capsys.readouterr().out
