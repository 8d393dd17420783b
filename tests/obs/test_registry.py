"""The run registry: append-only index, lookup, and ``runs diff``."""

import json
import multiprocessing
import sys

import repro.obs as obs
from repro.cli.main import main
from repro.obs.registry import (
    REGISTRY_SCHEMA,
    RunRegistry,
    render_runs_table,
)


def _record_run(registry, run_id="exp:11", verdict="ok", degradations=(),
                **index_fields):
    """Write a manifest-bearing run dir and its index line."""
    run_dir = registry.new_run_dir(run_id)
    manifest = obs.build_manifest(
        experiment_id="experiment",
        seed=11,
        config_fingerprint=run_id,
        degradations=list(degradations),
        deterministic=True,
        extra={"health": {"schema": 1, "verdict": verdict, "findings": [],
                          "counts": {"ok": 0, "warn": 0, "fail": 0},
                          "stages": {}}},
    )
    obs.write_manifest(manifest, run_dir / "manifest.json")
    return registry.record(
        run_dir, run_id=run_id, command="experiment", seed=11,
        deterministic=True, verdict=verdict, wall_s=1.0, **index_fields)


class TestIndex:
    def test_record_appends_schema_stamped_lines(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        entry = _record_run(registry)
        assert entry["schema"] == REGISTRY_SCHEMA
        assert entry["seq"] == 1
        assert entry["dir"] == "0001-exp-11"  # run id slugged for the fs
        lines = (registry.index_path.read_text().strip().splitlines())
        assert len(lines) == 1
        assert json.loads(lines[0]) == entry

    def test_sequences_advance_and_survive_restart(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry)
        _record_run(RunRegistry(tmp_path / "runs"))  # a later process
        entries = registry.entries()
        assert [e["seq"] for e in entries] == [1, 2]

    def test_torn_and_alien_lines_are_skipped(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry)
        with open(registry.index_path, "a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")          # alien but valid JSON
            fh.write('{"seq": 9, "dir"')  # torn mid-append
        assert [e["seq"] for e in registry.entries()] == [1]
        # The next recording still lands after the noise.
        _record_run(registry)
        assert [e["seq"] for e in registry.entries()] == [1, 2]

    def test_find_by_seq_run_id_and_dir(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry, run_id="exp:11")
        _record_run(registry, run_id="exp:11")
        assert registry.find("1")["seq"] == 1
        assert registry.find("0002-exp-11")["seq"] == 2
        # Repeated run ids resolve to the latest recording.
        assert registry.find("exp:11")["seq"] == 2
        assert registry.find("nope") is None

    def test_empty_registry_reads_clean(self, tmp_path):
        registry = RunRegistry(tmp_path / "missing")
        assert registry.entries() == []
        assert registry.next_seq() == 1


def _append_entries(runs_dir, writer, base_seq, n, barrier):
    """Child-process worker: append n pre-built index lines concurrently."""
    registry = RunRegistry(runs_dir)
    barrier.wait(timeout=30)
    for i in range(n):
        run_dir = registry.runs_dir / f"{base_seq + i:04d}-{writer}-run"
        run_dir.mkdir(parents=True, exist_ok=True)
        registry.record(run_dir, run_id=f"{writer}:{i}", command="experiment",
                        seed=i, deterministic=True, verdict="ok", wall_s=1.0)


class TestConcurrentAppenders:
    """Interleaved writers + a torn tail must never lose a complete entry.

    ``record`` writes each index line in a single ``write`` on an
    O_APPEND handle, and ``entries`` skips torn lines — so two processes
    hammering the same index can interleave *lines*, never bytes.
    """

    def test_two_processes_interleaving_drop_nothing(self, tmp_path):
        runs_dir = tmp_path / "runs"
        registry = RunRegistry(runs_dir)
        # An existing complete entry, then a torn tail with no newline —
        # exactly what a run killed mid-append leaves behind.
        first = _record_run(registry)
        with open(registry.index_path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "dir": "torn')
        ctx = multiprocessing.get_context(
            "fork" if sys.platform != "win32" else "spawn")
        barrier = ctx.Barrier(2)
        n_each = 20
        workers = [
            ctx.Process(target=_append_entries,
                        args=(str(runs_dir), writer, base_seq, n_each,
                              barrier))
            for writer, base_seq in (("a", 1000), ("b", 2000))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        entries = registry.entries()
        run_ids = [e.get("run_id") for e in entries]
        # The pre-existing complete entry survived both the tear and the
        # concurrent traffic...
        assert first["run_id"] in run_ids
        # ...and every concurrent append landed exactly once, parseable.
        for writer in ("a", "b"):
            recorded = sorted(r for r in run_ids
                              if isinstance(r, str)
                              and r.startswith(f"{writer}:"))
            assert recorded == sorted(f"{writer}:{i}" for i in range(n_each))
        assert len(entries) == 1 + 2 * n_each


class TestRunsDiff:
    def test_identical_runs_diff_unchanged(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry)
        _record_run(registry)
        assert main(["runs", "diff", "1", "2",
                     "--runs-dir", str(registry.runs_dir)]) == 0
        assert "regressed=0" in capsys.readouterr().out

    def test_health_regression_exits_one(self, tmp_path, capsys):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry)
        _record_run(registry, verdict="fail",
                    degradations=[{"kind": "breaker_open"}])
        assert main(["runs", "diff", "1", "2",
                     "--runs-dir", str(registry.runs_dir)]) == 1
        assert "[regressed] health.verdict" in capsys.readouterr().out


class TestRendering:
    def test_table_lists_runs_in_order(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        _record_run(registry)
        _record_run(registry, verdict="warn")
        table = render_runs_table(registry.entries())
        lines = table.splitlines()
        assert lines[0].startswith("seq")
        assert "0001-exp-11" in table and "0002-exp-11" in table
        assert "warn" in table

    def test_empty_table_is_friendly(self):
        assert "no recorded runs" in render_runs_table([])
