"""Instrumentation contracts across the pipeline, executors, and ingestion.

The load-bearing property: a *task* span's id is a pure function of
``(trace_id, task qualname, global index)`` — so the same sweep yields the
same span ids whether it runs serially, fanned out over process-pool
workers, or resumed from a checkpoint journal (cached tasks reuse their
cold-run ids, stamped ``cached=True``).
"""

import pytest

import repro.obs as obs
from repro.core.pipeline import AutoSens, AutoSensConfig
from repro.obs import span_identity
from repro.parallel import (
    CheckpointJournal,
    JournaledExecutor,
    ProcessExecutor,
    SerialExecutor,
)
from repro.telemetry.ingest import IngestCollector, IngestPolicy
from repro.telemetry.quality import quality_report
from repro.workload.scenarios import owa_scenario


def _double(x):
    return x * 2


def _task_ids(records):
    return {r["id"] for r in records if r["name"] == "task"}


class TestTaskSpanIdentity:
    def test_serial_and_process_ids_match(self):
        with obs.session(enabled=True, run_id="ids", deterministic=True):
            SerialExecutor().map_ordered(_double, [1, 2, 3, 4])
            serial = _task_ids(obs.trace_records())
        with obs.session(enabled=True, run_id="ids", deterministic=True):
            ProcessExecutor(max_workers=2, chunk_size=2).map_ordered(
                _double, [1, 2, 3, 4])
            pooled = _task_ids(obs.trace_records())
        expected = {
            span_identity("ids", "task", f"{_double.__qualname__}[{i}]")
            for i in range(4)
        }
        assert serial == pooled == expected

    def test_process_task_spans_hang_under_the_pool_map_span(self):
        with obs.session(enabled=True, run_id="ids", deterministic=True):
            ProcessExecutor(max_workers=2, chunk_size=2).map_ordered(
                _double, [1, 2, 3, 4])
            records = obs.trace_records()
        pool = [r for r in records if r["name"] == "pool_map"]
        assert len(pool) == 1
        tasks = [r for r in records if r["name"] == "task"]
        assert len(tasks) == 4
        assert all(t["parent"] == pool[0]["id"] for t in tasks)
        assert {t["tid"] for t in tasks} == {1, 3}  # 1 + chunk base

    def test_resumed_run_reuses_cached_task_ids(self, tmp_path):
        journal = CheckpointJournal(tmp_path, namespace="sweep")
        with obs.session(enabled=True, run_id="res", deterministic=True):
            JournaledExecutor(SerialExecutor(), journal).map_ordered(
                _double, [1, 2, 3, 4])
            cold = _task_ids(obs.trace_records())
        with obs.session(enabled=True, run_id="res", deterministic=True) as ctx:
            JournaledExecutor(SerialExecutor(), journal).map_ordered(
                _double, [1, 2, 3, 4])
            resumed = obs.trace_records()
            hits = ctx.metrics.counter("autosens_checkpoint_total")
        tasks = [r for r in resumed if r["name"] == "task"]
        assert _task_ids(resumed) == cold
        assert all(t["attrs"].get("cached") is True for t in tasks)
        assert hits.value(outcome="hit") == 4.0

    @pytest.mark.parametrize("inner", [
        SerialExecutor(), ProcessExecutor(max_workers=2, chunk_size=1)])
    def test_partial_resume_keys_fresh_tasks_by_sweep_index(self, tmp_path, inner):
        """A resume that recomputes items 2 and 3 of [1, 2, 3] keys their
        spans ``_double[1]`` and ``_double[2]``, as the cold run did, not
        by their positions in the pending list."""
        journal = CheckpointJournal(tmp_path, namespace="sweep")
        with obs.session(enabled=True, run_id="res", deterministic=True):
            JournaledExecutor(SerialExecutor(), journal).map_ordered(
                _double, [1, 2, 3])
            cold = {r["attrs"]["index"]: r["id"] for r in obs.trace_records()
                    if r["name"] == "task"}
        journal.clear()
        JournaledExecutor(SerialExecutor(), journal).map_ordered(_double, [1])
        with obs.session(enabled=True, run_id="res", deterministic=True):
            assert JournaledExecutor(inner, journal).map_ordered(
                _double, [1, 2, 3]) == [2, 4, 6]
            tasks = [r for r in obs.trace_records() if r["name"] == "task"]
        ids = [t["id"] for t in tasks]
        assert len(ids) == len(set(ids)) == 3
        fresh = [t for t in tasks if not t["attrs"].get("cached")]
        assert sorted(t["attrs"]["index"] for t in fresh) == [1, 2]
        assert all(t["id"] == cold[t["attrs"]["index"]] for t in fresh)

    def test_cold_run_counts_misses(self, tmp_path):
        journal = CheckpointJournal(tmp_path, namespace="sweep")
        with obs.session(enabled=True, run_id="res") as ctx:
            JournaledExecutor(SerialExecutor(), journal).map_ordered(_double, [1, 2])
            counter = ctx.metrics.counter("autosens_checkpoint_total")
            assert counter.value(outcome="miss") == 2.0
            assert counter.value(outcome="hit") == 0.0


class TestPipelineSpans:
    @pytest.fixture(scope="class")
    def logs(self):
        return owa_scenario(seed=3, duration_days=1.0, n_users=60,
                            candidates_per_user_day=30.0).generate().logs

    def test_preference_curve_emits_stage_spans(self, logs):
        engine = AutoSens(AutoSensConfig(seed=0))
        action = logs.action_names()[0]
        with obs.session(enabled=True, run_id="pipe", deterministic=True):
            engine.preference_curve(logs, action=action)
            names = {r["name"] for r in obs.trace_records()}
        assert {"preference_curve", "slice", "slotted_counts",
                "slotted_counts.unbiased", "corrected_reference",
                "corrected_histograms"} <= names

    def test_curve_span_id_is_keyed_by_slice(self, logs):
        engine = AutoSens(AutoSensConfig(seed=0))
        action = logs.action_names()[0]
        with obs.session(enabled=True, run_id="pipe", deterministic=True):
            engine.preference_curve(logs, action=action)
            curve = [r for r in obs.trace_records()
                     if r["name"] == "preference_curve"]
        key = f"curve:{(str(action), None, None, None, 30)}"
        assert curve[0]["id"] == span_identity("pipe", "preference_curve", key)

    def test_cache_stats_public_surface(self, logs):
        engine = AutoSens(AutoSensConfig(seed=0))
        action = logs.action_names()[0]
        engine.preference_curve(logs, action=action)
        engine.preference_curve(logs, action=action)
        assert engine.cache_stats() == {"hits": 0, "misses": 0,
                                        "evictions": 0, "entries": 0,
                                        "max_entries": 0}

    def test_cache_stats_without_cache(self):
        engine = AutoSens(AutoSensConfig(seed=0))
        assert engine.cache_stats() == {"hits": 0, "misses": 0,
                                        "evictions": 0, "entries": 0,
                                        "max_entries": 0}


class TestIngestInstrumentation:
    def _collect(self, policy):
        collector = IngestCollector(policy, source="x.jsonl")
        for _ in range(8):
            collector.good()
        collector.bad(9, "json-decode", "{oops", ValueError("bad"))
        return collector.finish()

    def test_quarantine_counters_and_outcome(self, tmp_path):
        qpath = tmp_path / "q.jsonl"
        policy = IngestPolicy(mode="quarantine", max_bad_share=0.5,
                              quarantine_path=qpath)
        with obs.session(enabled=True) as ctx:
            self._collect(policy)
            rows = ctx.metrics.counter("autosens_ingest_rows_total")
            rejects = ctx.metrics.counter("autosens_ingest_rejects_total")
        assert rows.value(mode="quarantine", outcome="read") == 8.0
        assert rows.value(mode="quarantine", outcome="quarantined") == 1.0
        assert rejects.value(mode="quarantine", reason="json-decode") == 1.0
        assert qpath.exists()

    def test_lenient_counts_skips(self):
        policy = IngestPolicy(mode="lenient", max_bad_share=0.5)
        with obs.session(enabled=True) as ctx:
            self._collect(policy)
            rows = ctx.metrics.counter("autosens_ingest_rows_total")
        assert rows.value(mode="lenient", outcome="skipped") == 1.0

    def test_quality_report_surfaces_fault_classes_and_quarantine(
            self, tmp_path):
        qpath = tmp_path / "q.jsonl"
        policy = IngestPolicy(mode="quarantine", max_bad_share=0.5,
                              quarantine_path=qpath)
        report = self._collect(policy)
        logs = owa_scenario(seed=3, duration_days=1.0, n_users=60,
                            candidates_per_user_day=30.0).generate().logs
        quality = quality_report(logs, ingest=report)
        (flag,) = [f for f in quality.flags if "rejected" in f.message]
        assert "by fault class: json-decode=1" in flag.message
        assert f"quarantined to {qpath}" in flag.message


class TestDegradations:
    def test_record_degradation_lands_in_context_and_counter(self):
        with obs.session(enabled=True) as ctx:
            obs.record_degradation("starved_slice", detail="too few rows")
            assert ctx.degradations == [
                {"kind": "starved_slice", "detail": "too few rows"}]
            counter = ctx.metrics.counter("autosens_degradations_total")
            assert counter.value(kind="starved_slice") == 1.0
