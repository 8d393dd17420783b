"""Chaos tests for the supervision layer.

The contract: a run with an injected stalled worker and an injected
memory-hogged, memory-pressured sweep still *completes*, every slice that
survives is byte-identical to a clean run's, and each intervention is
visible: the stalled chunk is counted as a timeout recovery, and the
memory budget bounds the sweep's waves and refuses what cannot fit.
Supervision degrades visibly; it never corrupts.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from repro.errors import MemoryBudgetError
from tests.faults import MemoryHog, StalledTask
from repro.parallel import ProcessExecutor, RetryPolicy, SerialExecutor
from repro.runtime import MemoryGovernor, Supervisor, estimate_counts_bytes
from repro.workload import owa_scenario


def _kernel(seed):
    """A deterministic per-item task, heavy enough to be worth recovering."""
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


def _stalled_map(items):
    """Map ``_kernel`` with item 3 hung in its pool worker; the chunk
    timeout gives up on it and the parent recomputes it."""
    # Item 3 hangs — but only inside a pool worker, so the serial
    # recovery in the parent completes it.
    stalled = StalledTask(_kernel, _is_item_three, stall_s=60.0)
    executor = ProcessExecutor(max_workers=2, chunk_size=1,
                               retry=RetryPolicy(timeout_s=1.0))
    return executor.map_ordered(stalled, items)


class _WaveRecorder:
    """A serial executor that records the size of every map it runs."""

    def __init__(self):
        self.waves = []

    def map_ordered(self, fn, items, chunk_size=None):
        self.waves.append(len(items))
        return SerialExecutor().map_ordered(fn, items)


class TestStalledWorkerChaos:
    def test_chunk_timeout_requeue_is_bit_identical(self):
        items = list(range(8))
        expected = [_kernel(i) for i in items]

        with obs.session(enabled=True) as ctx:
            with Supervisor(deadline_s=600).scope():
                got = _stalled_map(items)

        # The run completed and every result — including the recovered
        # stalled item — matches the clean computation bit for bit.
        assert len(got) == len(items)
        for result, clean in zip(got, expected):
            np.testing.assert_array_equal(result, clean)
        # The intervention happened once and was counted, not silent.
        recoveries = ctx.metrics.counter("autosens_executor_recoveries_total")
        assert recoveries.value(reason="timeout") == 1.0
        assert recoveries.value(reason="crash") == 0.0


class TestMemoryChaos:
    def test_pressured_sweep_bounds_waves_and_stays_identical(self,
                                                              chaos_logs):
        clean = _clean_curves(chaos_logs)

        # A soft limit of two working sets cuts the four periods into two
        # waves; the hard limit admits every slice.
        config = AutoSensConfig(seed=5)
        per_task = estimate_counts_bytes(len(chaos_logs), config.bins().count)
        governor = MemoryGovernor(soft_limit_bytes=2 * per_task,
                                  hard_limit_bytes=1 << 30)
        recorder = _WaveRecorder()
        engine = AutoSens(config, degrade=DegradePolicy(), executor=recorder)
        with Supervisor(memory_budget_mb=governor).scope():
            pressured = engine.curves_by_period(chaos_logs)

        assert recorder.waves == [2, 2]
        assert governor.n_refused == 0
        assert set(pressured) == set(clean)
        for period in clean:
            np.testing.assert_array_equal(
                pressured[period].nlp, clean[period].nlp
            )
            np.testing.assert_array_equal(
                pressured[period].latencies, clean[period].latencies
            )

        # A hard limit below one slice's working set admits nothing.
        tight = MemoryGovernor(soft_limit_bytes=1024)
        with obs.session(enabled=True) as ctx:
            with Supervisor(memory_budget_mb=tight).scope():
                with pytest.raises(MemoryBudgetError):
                    engine.curves_by_period(chaos_logs)
        assert tight.n_refused == 1
        refusals = ctx.metrics.counter("autosens_memory_refusals_total")
        assert refusals.value() == 1.0

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
    def test_full_chaos_run_records_every_intervention(self, chaos_logs):
        """One obs session, both fault classes: a stalled pool worker and
        a memory-pressured sweep under a deadline. The run completes,
        survivors match the clean run, the stall is counted as a timeout
        recovery, and the supervision summary accounts for the run."""
        clean = _clean_curves(chaos_logs)
        items = list(range(6))
        expected = [_kernel(i) for i in items]

        governor = MemoryGovernor(soft_limit_bytes=1024,
                                  hard_limit_bytes=1 << 30)
        supervisor = Supervisor(deadline_s=600.0, memory_budget_mb=governor)
        recorder = _WaveRecorder()
        engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy(),
                          executor=recorder)

        with obs.session(enabled=True) as ctx:
            with supervisor.scope():
                mapped = _stalled_map(items)
                curves = engine.curves_by_period(chaos_logs)

        for result, clean_item in zip(mapped, expected):
            np.testing.assert_array_equal(result, clean_item)
        assert recorder.waves == [1, 1, 1, 1]
        assert set(curves) == set(clean)
        for period in clean:
            np.testing.assert_array_equal(
                curves[period].nlp, clean[period].nlp
            )
        recoveries = ctx.metrics.counter("autosens_executor_recoveries_total")
        assert recoveries.value(reason="timeout") == 1.0
        # Nothing was shed, so supervision recorded no degradation.
        assert supervisor.shed_log == []
        summary = supervisor.summary()
        assert summary["memory"]["n_refused"] == 0
        assert summary["deadline_elapsed_s"] < 600.0
