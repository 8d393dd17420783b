"""Fleet watchtower: baselines, change-point drift, SLOs, the watch gate."""

import json
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.obs.registry import RunRegistry
from repro.obs.watch import (
    DEFAULT_SLOS,
    WATCH_SCHEMA,
    WatchConfigError,
    build_watch_report,
    collect_series,
    detect_change_point,
    evaluate_slos,
    load_slo_config,
    render_watch,
    robust_baseline,
    watch_exit_code,
    write_watch_artifact,
)
from repro.obs.diff import match_series as _match_series

GOLDEN = Path(__file__).parent / "golden" / "registry"
CLEAN = GOLDEN / "clean"
STEPPED = GOLDEN / "stepped"


def _points(values, start_seq=1):
    return [(start_seq + i, v) for i, v in enumerate(values)]


class TestChangePointDetector:
    def test_jittery_but_flat_series_is_stable(self):
        values = [2.0 + 0.02 * ((-1) ** i) * (1 + i % 3) for i in range(12)]
        assert detect_change_point(_points(values))["state"] == "stable"

    def test_step_is_detected_and_attributed_to_the_first_moved_run(self):
        values = [2.0, 2.02, 1.98, 2.01, 1.99, 3.2, 3.22, 3.18]
        result = detect_change_point(_points(values))
        assert result["state"] == "stepped"
        assert result["change_seq"] == 6  # the first run of the new regime
        assert result["direction"] == "up"
        assert result["delta"] == pytest.approx(1.2, abs=0.05)

    def test_downward_step_carries_direction_down(self):
        values = [3.0, 3.01, 2.99, 3.02, 2.98, 1.5, 1.51, 1.49]
        result = detect_change_point(_points(values))
        assert result["state"] == "stepped"
        assert result["direction"] == "down"

    def test_steady_ramp_is_trending_not_stepped(self):
        values = [1.0 + 0.15 * i + 0.005 * ((-1) ** i) for i in range(12)]
        result = detect_change_point(_points(values))
        assert result["state"] == "trending"
        assert result["direction"] == "up"
        assert result["slope"] == pytest.approx(0.15, abs=0.02)

    def test_constant_series_is_stable_without_dividing_by_zero(self):
        result = detect_change_point(_points([7.0] * 10))
        assert result["state"] == "stable"

    def test_short_history_abstains(self):
        result = detect_change_point(_points([1.0, 9.0, 1.0, 9.0]))
        assert result["state"] == "stable"
        assert result["note"] == "insufficient-history"


class TestRobustBaseline:
    def test_baseline_reports_center_and_envelope(self):
        baseline = robust_baseline(_points([2.0, 2.1, 1.9, 2.0, 2.05]))
        assert baseline["n"] == 5
        assert baseline["last"] == 2.05
        assert baseline["last_seq"] == 5
        assert baseline["lo"] <= baseline["median"] <= baseline["hi"]
        assert baseline["within_envelope"] is True

    def test_one_outlier_cannot_widen_its_own_envelope(self):
        # MAD of 9 tight points + 1 huge one stays tight, so the outlier
        # itself lands outside the band it failed to stretch.
        baseline = robust_baseline(_points([2.0] * 6 + [2.01, 1.99, 2.0, 50.0]))
        assert baseline["within_envelope"] is False

    def test_identical_history_collapses_in_envelope(self):
        baseline = robust_baseline(_points([3.0] * 8))
        assert baseline["mad"] == 0.0
        assert baseline["within_envelope"] is True

    def test_empty_series_reports_n_zero(self):
        assert robust_baseline([]) == {"n": 0}


class TestSeriesMatching:
    def test_brackets_in_series_names_are_literal(self):
        # fnmatch alone would read [*] as a character class and match
        # nothing; the span SLOs depend on it being literal.
        assert _match_series("span_seconds[preference_compute]",
                             "span_seconds[*]")
        assert _match_series("span_share[ingest]", "span_share[*]")
        assert not _match_series("span_seconds[x]", "span_share[*]")

    def test_plain_globs_still_work(self):
        assert _match_series("curve.mean_nlp", "curve.*")
        assert not _match_series("wall_s", "curve.*")


class TestSloConfig:
    def test_none_yields_the_default_fleet_slos(self):
        slos = load_slo_config(None)
        assert [s["name"] for s in slos] == [s["name"] for s in DEFAULT_SLOS]

    def test_toml_slo_tables_load(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[slo]]\nname = "wall"\nseries = "wall_s"\n'
            'objective = "max"\nthreshold = 10.0\nwindow = 4\n'
            'burn_rate = 0.25\n', encoding="utf-8")
        slos = load_slo_config(path)
        assert slos == [{"name": "wall", "series": "wall_s",
                         "objective": "max", "threshold": 10.0,
                         "window": 4, "burn_rate": 0.25}]

    def test_json_config_loads_with_defaults_filled(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slo": [
            {"name": "s", "series": "wall_s", "objective": "stable"}]}),
            encoding="utf-8")
        slos = load_slo_config(path)
        assert slos[0]["window"] == 8
        assert slos[0]["threshold"] is None

    @pytest.mark.parametrize("spec", [
        {"series": "x", "objective": "max", "threshold": 1.0},  # no name
        {"name": "a", "objective": "max", "threshold": 1.0},    # no series
        {"name": "a", "series": "x", "objective": "median"},    # bad objective
        {"name": "a", "series": "x", "objective": "max"},       # no threshold
        {"name": "a", "series": "x", "objective": "stable", "window": 1},
        {"name": "a", "series": "x", "objective": "stable", "burn_rate": 2.0},
        {"name": "a", "series": "x", "objective": "stable", "sev": "high"},
    ])
    def test_schema_violations_raise(self, spec):
        with pytest.raises(WatchConfigError):
            load_slo_config({"slo": [spec]})

    def test_duplicate_names_raise(self):
        spec = {"name": "dup", "series": "x", "objective": "stable"}
        with pytest.raises(WatchConfigError, match="duplicate"):
            load_slo_config({"slo": [dict(spec), dict(spec)]})

    def test_empty_config_raises(self):
        with pytest.raises(WatchConfigError):
            load_slo_config({"slo": []})


class TestEvaluateSlos:
    def test_burn_rate_gates_on_share_of_breaching_runs(self):
        slos = load_slo_config({"slo": [
            {"name": "wall", "series": "wall_s", "objective": "max",
             "threshold": 2.0, "window": 4, "burn_rate": 0.25}]})
        # 1 of the last 4 runs over threshold: burn 0.25, exactly allowed.
        ok = evaluate_slos(slos, {"wall_s": _points([1.0, 1.0, 3.0, 1.0, 1.0])})
        assert ok["met"] is True
        # 2 of 4 over: burn 0.5 > 0.25 allowed.
        bad = evaluate_slos(slos, {"wall_s": _points([1.0, 3.0, 3.0, 1.0, 1.0])})
        assert bad["met"] is False
        detail = bad["slos"][0]["series"][0]
        assert detail["observed_burn_rate"] == 0.5
        assert detail["breaching_seqs"] == [2, 3]

    def test_stable_objective_breaches_only_on_upward_movement(self):
        slos = load_slo_config({"slo": [
            {"name": "spans", "series": "span_seconds[*]",
             "objective": "stable", "window": 16}]})
        up = {"span_seconds[a]": _points(
            [2.0, 2.02, 1.98, 2.01, 1.99, 3.2, 3.22, 3.18])}
        down = {"span_seconds[a]": _points(
            [3.0, 3.01, 2.99, 3.02, 2.98, 1.5, 1.51, 1.49])}
        assert evaluate_slos(slos, up)["met"] is False
        assert evaluate_slos(slos, down)["met"] is True  # an improvement

    def test_pattern_matching_nothing_is_met_with_no_data(self):
        slos = load_slo_config({"slo": [
            {"name": "ghost", "series": "nonexistent.*",
             "objective": "stable"}]})
        report = evaluate_slos(slos, {"wall_s": _points([1.0, 1.0])})
        assert report["met"] is True
        assert report["slos"][0]["note"] == "no-data"


class TestFixtureRegistries:
    """The committed clean/stepped registries drive the CI gate."""

    def test_clean_registry_meets_every_slo(self):
        report = build_watch_report(RunRegistry(CLEAN))
        assert report["n_runs"] == 8
        assert report["slo"]["met"] is True
        assert watch_exit_code(report) == 0
        trends = report["trend"]["series"]
        assert all(t["state"] == "stable" for t in trends.values())

    def test_stepped_registry_names_the_series_and_the_run(self):
        report = build_watch_report(RunRegistry(STEPPED))
        assert watch_exit_code(report) == 1
        breaches = report["slo"]["breaches"]
        assert any(
            b["series"] == "span_seconds[preference_compute]"
            and b["state"] == "stepped" and b["change_seq"] == 6
            for b in breaches)

    def test_collect_series_covers_spans_health_and_ingest(self):
        series = collect_series(RunRegistry(CLEAN))
        names = set(series)
        assert {"wall_s", "health.fail", "health.warn",
                "ingest.reject_rate",
                "span_seconds[preference_compute]",
                "span_share[preference_compute]"} <= names
        assert all(len(points) == 8 for points in series.values())

    def test_report_is_byte_identical_across_executors(self, tmp_path):
        registry = RunRegistry(CLEAN)
        blobs = {}
        for tag in ("serial-1", "serial-2"):
            report = build_watch_report(registry)
            out = tmp_path / tag
            for name in ("baseline", "trend", "slo"):
                write_watch_artifact(report[name], out / f"{name}.json")
            blobs[tag] = {name: (out / f"{name}.json").read_bytes()
                          for name in ("baseline", "trend", "slo")}
        assert blobs["serial-1"] == blobs["serial-2"]

    def test_artifacts_carry_schema_and_kind(self):
        report = build_watch_report(RunRegistry(CLEAN))
        assert report["baseline"]["schema"] == WATCH_SCHEMA
        assert report["baseline"]["kind"] == "watch-baseline"
        assert report["trend"]["kind"] == "watch-trend"
        assert report["slo"]["kind"] == "watch-slo"

    def test_empty_registry_raises_config_error(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        registry.index_path.parent.mkdir(parents=True, exist_ok=True)
        registry.index_path.write_text("", encoding="utf-8")
        with pytest.raises(WatchConfigError, match="no recorded runs"):
            build_watch_report(registry)


class TestWatchCli:
    def test_check_gate_passes_on_the_clean_fixture(self, capsys):
        assert main(["watch", str(CLEAN), "--check"]) == 0
        out = capsys.readouterr().out
        assert "5/5 SLOs met" in out
        assert "all" in out and "stable" in out

    def test_check_gate_fails_loudly_on_the_stepped_fixture(self, capsys):
        assert main(["watch", str(STEPPED), "--check"]) == 1
        out = capsys.readouterr().out
        assert "BREACH" in out
        assert "span_seconds[preference_compute]" in out
        assert "seq 6" in out

    def test_without_check_breaches_report_but_exit_zero(self, capsys):
        assert main(["watch", str(STEPPED)]) == 0
        assert "BREACH" in capsys.readouterr().out

    def test_out_dir_writes_the_three_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["watch", str(CLEAN), "--out-dir", str(out)]) == 0
        for name in ("baseline", "trend", "slo"):
            payload = json.loads((out / f"{name}.json").read_text())
            assert payload["schema"] == WATCH_SCHEMA
            assert payload["kind"] == f"watch-{name}"

    def test_follow_with_max_polls_terminates(self, capsys):
        assert main(["watch", str(CLEAN), "--check", "--follow",
                     "--interval", "0.1", "--max-polls", "2"]) == 0

    def test_missing_registry_is_a_config_error(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope"), "--check"]) == 2
        assert "index.jsonl" in capsys.readouterr().err

    def test_malformed_slo_config_is_a_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "slo.toml"
        bad.write_text('[[slo]]\nname = "x"\n', encoding="utf-8")
        assert main(["watch", str(CLEAN), "--slo", str(bad)]) == 3

    def test_custom_slo_file_drives_the_gate(self, tmp_path, capsys):
        # A wall-time cap no fixture run can meet: every run breaches.
        strict = tmp_path / "slo.toml"
        strict.write_text(
            '[[slo]]\nname = "impossible-wall"\nseries = "wall_s"\n'
            'objective = "max"\nthreshold = 0.001\nwindow = 8\n',
            encoding="utf-8")
        assert main(["watch", str(CLEAN), "--slo", str(strict),
                     "--check"]) == 1
        assert "impossible-wall" in capsys.readouterr().out


class TestTopManifestFallback:
    def test_top_degrades_to_a_manifest_only_summary(self, capsys):
        run_dir = sorted(p for p in CLEAN.iterdir() if p.is_dir())[0]
        assert not (run_dir / "progress.json").exists()
        assert main(["top", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "manifest-only summary" in out
        assert "preference_compute" in out

    def test_top_takes_elapsed_from_the_registry_wall_clock(self, capsys):
        # Summing span seconds would count nested spans twice; the index
        # line's wall_s times the whole run.
        entry = RunRegistry(CLEAN).entries()[0]
        assert main(["top", str(CLEAN / entry["dir"])]) == 0
        assert f"elapsed {entry['wall_s']:.1f}s" in capsys.readouterr().out

    def test_top_on_an_empty_dir_is_a_schema_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path)]) == 3
        assert "manifest.json" in capsys.readouterr().err


class TestRendering:
    def test_render_names_drifted_series_inline(self):
        report = build_watch_report(RunRegistry(STEPPED))
        text = render_watch(report)
        assert "drift:" in text
        assert "slos:" in text
        assert "span_seconds[preference_compute]: stepped up at seq 6" in text
