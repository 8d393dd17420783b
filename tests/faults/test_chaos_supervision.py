"""Chaos tests for the supervision layer (PR 4).

The contract: a run with an injected stalled worker and an injected
memory-hogged, memory-pressured sweep still *completes*, every slice that
survives is byte-identical to a clean run's, and each intervention —
watchdog kill, memory spill — is recorded as a degradation for the run
manifest. Supervision degrades visibly; it never corrupts.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from tests.faults import MemoryHog, StalledTask
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.runtime import MemoryGovernor, Supervisor, Watchdog
from repro.workload import owa_scenario


def _kernel(seed):
    """A deterministic per-item task, heavy enough to be worth killing."""
    return np.random.default_rng(int(seed)).normal(size=512)


def _is_item_three(x):
    return int(x) == 3


@pytest.fixture(scope="module")
def chaos_logs():
    return owa_scenario(
        seed=42, duration_days=2.0, n_users=100,
        candidates_per_user_day=60.0,
    ).generate().logs


def _clean_curves(logs):
    engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy(),
                      executor=SerialExecutor())
    return engine.curves_by_period(logs)


class TestStalledWorkerChaos:
    def test_watchdog_kills_and_requeue_is_bit_identical(self, tmp_path):
        items = list(range(8))
        expected = [_kernel(i) for i in items]

        # Item 3 hangs — but only inside a pool worker, so the serial
        # requeue in the parent completes it.
        stalled = StalledTask(_kernel, _is_item_three, stall_s=60.0)
        watchdog = Watchdog(
            tmp_path / "hb", stall_timeout_s=1.0, poll_interval_s=0.2,
        )
        supervisor = Supervisor(watchdog=watchdog, workdir=tmp_path)
        executor = ProcessExecutor(max_workers=2, chunk_size=1)
        with obs.session(enabled=True) as ctx:
            with supervisor.scope():
                got = executor.map_ordered(stalled, items)

        # The run completed and every result — including the requeued
        # stalled item — matches the clean computation bit for bit.
        assert len(got) == len(items)
        for result, clean in zip(got, expected):
            np.testing.assert_array_equal(result, clean)
        # The intervention happened and was recorded, not silent.
        assert watchdog.kills, "the stalled worker was never killed"
        kinds = [d["kind"] for d in ctx.degradations]
        assert "watchdog_kill" in kinds


class TestMemoryChaos:
    def test_pressured_sweep_spills_and_stays_identical(self, chaos_logs,
                                                        tmp_path):
        clean = _clean_curves(chaos_logs)

        governor = MemoryGovernor(
            soft_limit_bytes=1024, hard_limit_bytes=1 << 30,
            spill_dir=tmp_path / "spill",
        )
        supervisor = Supervisor(memory_budget_mb=governor, workdir=tmp_path)
        engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy(),
                          executor=SerialExecutor())
        with obs.session(enabled=True) as ctx:
            with supervisor.scope():
                pressured = engine.curves_by_period(chaos_logs)

        assert governor.n_spills > 0, "the soft limit never forced a spill"
        assert set(pressured) == set(clean)
        for period in clean:
            np.testing.assert_array_equal(
                pressured[period].nlp, clean[period].nlp
            )
            np.testing.assert_array_equal(
                pressured[period].latencies, clean[period].latencies
            )
        kinds = [d["kind"] for d in ctx.degradations]
        assert "memory_spill" in kinds

    def test_memory_hogged_slice_result_is_unchanged(self, chaos_logs):
        engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy())
        clean = engine.preference_curve(chaos_logs)

        hogged_engine = AutoSens(AutoSensConfig(seed=5),
                                 degrade=DegradePolicy())
        hog = MemoryHog(hogged_engine.preference_curve, lambda _: True,
                        ballast_mb=8.0, chunk_mb=4.0)
        pressured = hog(chaos_logs)
        assert hog.n_hogs == 1
        np.testing.assert_array_equal(pressured.nlp, clean.nlp)
        np.testing.assert_array_equal(pressured.latencies, clean.latencies)


class TestCombinedChaos:
    def test_full_chaos_run_records_every_intervention(self, chaos_logs,
                                                       tmp_path):
        """One obs session, both fault classes: a stalled pool worker and
        a memory-pressured sweep. The run completes, survivors match the
        clean run, and the manifest-bound degradation list names both
        interventions."""
        clean = _clean_curves(chaos_logs)
        items = list(range(6))
        expected = [_kernel(i) for i in items]

        watchdog = Watchdog(
            tmp_path / "hb", stall_timeout_s=1.0, poll_interval_s=0.2,
        )
        governor = MemoryGovernor(
            soft_limit_bytes=1024, hard_limit_bytes=1 << 30,
            spill_dir=tmp_path / "spill",
        )
        supervisor = Supervisor(
            deadline_s=600.0, watchdog=watchdog,
            memory_budget_mb=governor, workdir=tmp_path,
        )
        stalled = StalledTask(_kernel, _is_item_three, stall_s=60.0)
        executor = ProcessExecutor(max_workers=2, chunk_size=1)
        engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy(),
                          executor=SerialExecutor())

        with obs.session(enabled=True) as ctx:
            with supervisor.scope():
                mapped = executor.map_ordered(stalled, items)
                curves = engine.curves_by_period(chaos_logs)

        for result, clean_item in zip(mapped, expected):
            np.testing.assert_array_equal(result, clean_item)
        assert set(curves) == set(clean)
        for period in clean:
            np.testing.assert_array_equal(
                curves[period].nlp, clean[period].nlp
            )
        kinds = {d["kind"] for d in ctx.degradations}
        assert {"watchdog_kill", "memory_spill"} <= kinds
        summary = supervisor.summary()
        assert summary["watchdog_kills"] >= 1
        assert summary["memory"]["n_spills"] >= 1
        assert summary["deadline_elapsed_s"] < 600.0
