"""CLI error taxonomy: typed exit codes and the ingestion flags."""

import json
import tempfile

import pytest

from repro.cli.main import _exit_code_for, main
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    EmptyDataError,
    IngestError,
    InsufficientDataError,
    MemoryBudgetError,
    PrivacyError,
    ReproError,
    SchemaError,
    TaskFailedError,
)


@pytest.fixture()
def dirty_log(tmp_path):
    """A small valid log with a burst of bad lines appended."""
    path = tmp_path / "dirty.jsonl"
    main(["generate", "--scenario", "owa", "--seed", "9",
          "--days", "1", "--users", "60", "--out", str(path)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken line\n")
        fh.write('{"time": 1.0}\n')
    return path


class TestExitCodeMapping:
    @pytest.mark.parametrize("exc,code", [
        (ConfigError("x"), 2),
        (SchemaError("x"), 3),
        (IngestError("x"), 4),
        (EmptyDataError("x"), 5),
        (InsufficientDataError("x"), 5),
        (PrivacyError("x"), 6),
        (TaskFailedError("t", 3), 7),
        (DeadlineExceededError("x"), 8),
        (CircuitOpenError("dep"), 9),
        (MemoryBudgetError("x"), 10),
        (ReproError("x"), 1),
    ])
    def test_each_class_has_its_code(self, exc, code):
        assert _exit_code_for(exc) == code


class TestTypedExits:
    def test_schema_error_exits_3(self, dirty_log, capsys):
        assert main(["analyze", str(dirty_log)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_ingest_error_exits_4(self, dirty_log, capsys):
        assert main(["analyze", str(dirty_log),
                     "--on-bad-rows", "lenient",
                     "--max-bad-share", "0.0000001"]) == 4
        assert "error budget" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        # quarantine mode without a sink path is a config error.
        path = tmp_path / "x.jsonl"
        path.write_text("")
        assert main(["quality", str(path),
                     "--on-bad-rows", "quarantine"]) == 2
        assert "quarantine" in capsys.readouterr().err

    def test_uncorrected_counts_table_exits_2(self, tmp_path, capsys):
        # A counts table holds per-slot statistics only, so it cannot give
        # the uncorrected curve; the CLI refuses instead of correcting.
        log, table = tmp_path / "g.jsonl", tmp_path / "counts.json"
        main(["generate", "--scenario", "owa", "--seed", "9",
              "--days", "1", "--users", "60", "--out", str(log)])
        assert main(["export-counts", str(log), "--out", str(table)]) == 0
        assert main(["analyze", str(table)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(table), "--no-time-correction"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time_correction" in err
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_empty_data_exits_5(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["analyze", str(path)]) == 5

    @pytest.mark.parametrize("argv", [
        ["quality", "missing.jsonl"],
        ["analyze", "missing.jsonl"],
        ["analyze", "missing.jsonl.gz"],
        ["preflight", "missing.csv"],
        ["export-counts", "missing.jsonl", "--out", "counts.json"],
    ])
    def test_missing_input_exits_2(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / arg) if arg.startswith("missing") else arg
                for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing." in err
        assert len(err.strip().splitlines()) == 1  # no traceback


class TestIngestFlags:
    def test_lenient_analyze_succeeds_and_reports(self, dirty_log, capsys):
        status = main(["analyze", str(dirty_log), "--on-bad-rows", "lenient"])
        assert status == 0
        captured = capsys.readouterr()
        assert "rejected" in captured.err   # the one-line ingest note
        assert "NLP" in captured.out

    def test_quarantine_analyze_writes_sink(self, dirty_log, tmp_path, capsys):
        sink = tmp_path / "rejects.jsonl"
        status = main(["analyze", str(dirty_log),
                       "--on-bad-rows", "quarantine",
                       "--quarantine-path", str(sink)])
        assert status == 0
        entries = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(entries) == 2
        assert {e["reason"] for e in entries} == {"json-decode", "schema"}

    def test_quality_shows_ingest_rows(self, dirty_log, capsys):
        main(["quality", str(dirty_log), "--on-bad-rows", "lenient"])
        out = capsys.readouterr().out
        assert "rows rejected" in out
        assert "rejected[json-decode]" in out

    def test_preflight_accepts_flags(self, dirty_log, capsys):
        status = main(["preflight", str(dirty_log), "--on-bad-rows", "lenient"])
        assert status in (0, 1)  # readiness depends on the data, not a crash
        assert "check" in capsys.readouterr().out

    def test_export_counts_honours_ingest_flags(self, dirty_log, tmp_path,
                                               capsys):
        out = tmp_path / "counts.json"
        assert main(["export-counts", str(dirty_log), "--out", str(out)]) == 3
        sink = tmp_path / "rejects.jsonl"
        status = main(["export-counts", str(dirty_log), "--out", str(out),
                       "--on-bad-rows", "quarantine",
                       "--quarantine-path", str(sink)])
        assert status == 0
        assert out.exists()
        assert len(sink.read_text().splitlines()) == 2
        assert "rejected" in capsys.readouterr().err


@pytest.fixture()
def clean_log(tmp_path):
    """A small valid log for the supervision-flag tests."""
    path = tmp_path / "clean.jsonl"
    main(["generate", "--scenario", "owa", "--seed", "9",
          "--days", "1", "--users", "60", "--out", str(path)])
    return path


class TestSupervisionExits:
    def test_deadline_exceeded_exits_8(self, clean_log, capsys):
        # A sub-microsecond budget expires before the first cooperative
        # checkpoint; analyze (no degrade policy) propagates the error.
        status = main(["analyze", str(clean_log), "--deadline-s", "0.000001"])
        assert status == 8
        err = capsys.readouterr().err
        assert "deadline" in err and len(err.strip().splitlines()) == 1

    def test_memory_budget_exits_10(self, clean_log, capsys):
        # A microscopic budget refuses the slice's working set outright.
        status = main(["analyze", str(clean_log),
                       "--memory-budget-mb", "0.001"])
        assert status == 10
        assert "budget" in capsys.readouterr().err

    def test_circuit_open_maps_to_9(self):
        from repro.runtime import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        with pytest.raises(OSError):
            breaker.call(_boom)
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(_boom)
        assert _exit_code_for(info.value) == 9

    def test_generous_budgets_run_clean(self, clean_log, capsys):
        status = main(["analyze", str(clean_log), "--deadline-s", "600",
                       "--memory-budget-mb", "4096", "--breaker"])
        assert status == 0
        assert "NLP" in capsys.readouterr().out

    def test_supervised_run_leaves_no_temp_directory(self, clean_log, tmp_path,
                                                     monkeypatch, capsys):
        scratch = tmp_path / "tmpdir"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        status = main(["analyze", str(clean_log), "--deadline-s", "600",
                       "--memory-budget-mb", "4096", "--breaker"])
        assert status == 0
        assert list(scratch.iterdir()) == []
        capsys.readouterr()


def _boom():
    raise OSError("dependency down")


class TestExperimentCheckpointFlag:
    def test_checkpoint_dir_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        args = ["experiment", "table1", "--scale", "small",
                "--checkpoint-dir", str(ckpt), "--no-plots"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert ckpt.exists() and list(ckpt.iterdir())
        assert main(args) == 0  # resumed from the journal
        assert capsys.readouterr().out == first

    def test_fig4_resume_serves_every_sweep_task(self, tmp_path, capsys):
        """fig4 maps its sweep through the executor, so the task journal
        is exercised: with the outcome entry gone, a rerun serves every
        sweep task from the journal."""
        import pickle

        from repro.analysis.base import ExperimentOutcome

        ckpt = tmp_path / "ckpt"
        metrics = tmp_path / "metrics.prom"
        args = ["experiment", "fig4", "--scale", "small",
                "--checkpoint-dir", str(ckpt), "--no-plots",
                "--metrics-out", str(metrics)]
        status = main(args)
        first = capsys.readouterr().out
        assert main(args) == status
        assert capsys.readouterr().out == first

        entries = sorted(ckpt.glob("*.pkl"))
        outcomes = [path for path in entries
                    if isinstance(pickle.loads(path.read_bytes()),
                                  ExperimentOutcome)]
        assert len(outcomes) == 1
        outcomes[0].unlink()
        n_tasks = len(entries) - 1
        assert n_tasks > 0

        assert main(args) == status
        assert capsys.readouterr().out == first
        hits = [line for line in metrics.read_text().splitlines()
                if line.startswith('autosens_checkpoint_total{outcome="hit"}')]
        assert hits == [f'autosens_checkpoint_total{{outcome="hit"}} {n_tasks}']


def _health(findings):
    return {"schema": 1, "verdict": "ok", "stages": {},
            "counts": {"ok": 0, "warn": 0, "fail": 0}, "findings": findings}


@pytest.fixture(scope="module")
def validate_obs():
    """``tools/validate_obs.py`` imported as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "validate_obs.py"
    spec = importlib.util.spec_from_file_location("validate_obs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMalformedArtifacts:
    """Malformed artifacts are typed errors: exit 3 from the CLI, one
    ``INVALID:`` line per violation and exit 1 from the validator — never
    an untyped exception."""

    def test_doctor_on_non_object_findings_exits_3(self, tmp_path, capsys):
        path = tmp_path / "health.json"
        path.write_text(json.dumps(_health([1])))
        assert main(["doctor", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_obs_diff_rejects_a_finding_without_fields(self, tmp_path,
                                                       capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_health([])))
        b.write_text(json.dumps(_health([{"probe": 1}])))
        assert main(["obs", "diff", str(a), str(b)]) == 3
        assert "finding 0 lacks" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,name,text", [
        ("trace", "trace.jsonl", "[]\n"),
        ("metrics", "metrics.json", json.dumps({"c": [1]})),
        ("diff", "diff.json", json.dumps({
            "schema": 1, "kind": "manifest", "entries": [1],
            "summary": {}})),
    ])
    def test_validator_reports_instead_of_crashing(
            self, validate_obs, tmp_path, capsys, flag, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert validate_obs.main([f"--{flag}", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ")
        assert all(line.startswith("INVALID: ")
                   for line in err.strip().splitlines())
