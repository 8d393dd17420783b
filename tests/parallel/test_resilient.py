"""Fault-tolerant executor semantics: crash recovery, checkpoint resume.

The process-backend crash tests use tasks that misbehave only inside a
worker process (detected via ``multiprocessing.parent_process()``), so the
serial recovery path — which runs in the main process — computes the real
value. That is exactly the recovery contract: pure tasks give bit-identical
results no matter which process finally ran them.
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.obs as obs
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InsufficientDataError,
    TaskFailedError,
)
from repro.parallel import (
    CheckpointJournal,
    JournaledExecutor,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
)
from repro.runtime import CircuitBreaker, Deadline, Supervisor


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _square(x):
    return x * x


def _square_crash_in_worker(x):
    if _in_worker():
        os._exit(17)  # hard death: no exception, no cleanup
    return x * x


def _square_slow_in_worker(x):
    if _in_worker():
        time.sleep(30.0)
    return x * x


def _square_slow_after_zero(x):
    if x:
        time.sleep(2.0)
    return x * x


def _os_error_everywhere(_):
    raise OSError("dependency down")


def _serial(items):
    return SerialExecutor().map_ordered(_square, items)


class TestProcessExecutorCrashRecovery:
    def test_worker_crash_recovers_bit_identical(self):
        items = list(range(12))
        executor = ProcessExecutor(max_workers=2, chunk_size=3)
        assert executor.map_ordered(_square_crash_in_worker, items) == \
            _serial(items)

    def test_timeout_recovers_serially(self):
        items = list(range(4))
        executor = ProcessExecutor(
            max_workers=2, chunk_size=2,
            retry=RetryPolicy(timeout_s=1.0),
        )
        start = time.monotonic()
        assert executor.map_ordered(_square_slow_in_worker, items) == \
            _serial(items)
        # The hung workers must not be waited for on shutdown.
        assert time.monotonic() - start < 25.0

    def test_timed_out_worker_does_not_hold_the_interpreter(self):
        """A map whose chunks time out returns, and the process then exits
        without waiting for the still-sleeping workers."""
        root = Path(__file__).resolve().parents[2]
        script = (
            "from repro.parallel import ProcessExecutor, RetryPolicy\n"
            "from tests.parallel.test_resilient import _square_slow_in_worker\n"
            "executor = ProcessExecutor(max_workers=2, chunk_size=1,\n"
            "                           retry=RetryPolicy(timeout_s=0.5))\n"
            "assert executor.map_ordered(_square_slow_in_worker, [1, 2]) == [1, 4]\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", script], cwd=root,
                                env=env, start_new_session=True)
        try:
            assert proc.wait(timeout=10.0) == 0
        finally:
            # On failure the sleeping workers outlive the map: end them too.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert time.monotonic() - start < 3.0

    def test_data_errors_propagate_unchanged(self):
        def sparse(_):
            raise InsufficientDataError("too sparse")

        with pytest.raises(InsufficientDataError):
            ProcessExecutor(max_workers=1).map_ordered(sparse, [1])

    def test_one_recovery_loop_under_the_journal(self, tmp_path):
        """A one-chunk map whose worker dies, under the journal wrapper:
        the one recovery loop re-runs the chunk, journals every task, and
        counts exactly one recovery."""
        items = list(range(6))
        journal = CheckpointJournal(tmp_path, namespace="one-loop")
        executor = JournaledExecutor(
            ProcessExecutor(max_workers=2, chunk_size=len(items)), journal)
        with obs.session(enabled=True, deterministic=True) as ctx:
            got = executor.map_ordered(_square_crash_in_worker, items)
        assert got == _serial(items)
        assert len(journal) == len(items)
        text = ctx.metrics.render_prometheus()
        recoveries = ctx.metrics.counter("autosens_executor_recoveries_total")
        assert recoveries.value(reason="crash") == 1.0
        families = {line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE") and "recover" in line}
        assert families == {"autosens_executor_recoveries_total"}

    def test_breaker_guards_the_recovery_loop(self):
        supervisor = Supervisor(breaker=CircuitBreaker(failure_threshold=1))
        with supervisor.scope():
            with pytest.raises(CircuitOpenError):
                ProcessExecutor(max_workers=2).map_ordered(
                    _os_error_everywhere, [1, 2])
        with pytest.raises(TaskFailedError):
            ProcessExecutor(max_workers=2).map_ordered(
                _os_error_everywhere, [1, 2])


class TestProcessExecutorDeadline:
    def test_expired_budget_is_not_a_timeout_recovery(self):
        """The deadline ending a chunk wait raises at once; nothing is
        counted as recovered."""
        items = list(range(6))
        with obs.session(enabled=True) as ctx:
            with Supervisor(deadline_s=0.5).scope():
                start = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    ProcessExecutor(max_workers=2, chunk_size=1).map_ordered(
                        _square_slow_after_zero, items)
                elapsed = time.monotonic() - start
            recoveries = ctx.metrics.counter(
                "autosens_executor_recoveries_total")
            assert recoveries.value(reason="timeout") == 0.0
        assert elapsed < 1.5

    def test_expired_budget_drops_queued_chunks(self, monkeypatch):
        """Expiry at a chunk boundary surfaces without waiting out the
        running and queued chunks. The fake clock jumps past the budget
        once chunk 0's results are in; five 2 s chunks remain."""
        now = [0.0]
        report_progress = obs.report_progress

        def expire_after_a_chunk(stage, total=None, done=0):
            if done:
                now[0] = 100.0
            report_progress(stage, total=total, done=done)

        monkeypatch.setattr(obs, "report_progress", expire_after_a_chunk)
        executor = ProcessExecutor(max_workers=2, chunk_size=1)
        start = time.monotonic()
        with Supervisor(deadline_s=Deadline(10.0, clock=lambda: now[0])).scope():
            with pytest.raises(DeadlineExceededError, match="pool_map"):
                executor.map_ordered(_square_slow_after_zero, range(6))
        assert time.monotonic() - start < 1.5


class TestResilientExecutor:
    """The resilient stack: a :class:`JournaledExecutor` over a backend
    whose one recovery loop re-runs lost chunks in-process."""

    def test_plain_map_matches_serial(self, tmp_path):
        executor = JournaledExecutor(SerialExecutor(),
                                     CheckpointJournal(tmp_path))
        assert executor.map_ordered(_square, range(5)) == [0, 1, 4, 9, 16]
        assert executor.map_ordered(_square, []) == []

    def test_inner_crash_falls_back_to_serial(self, tmp_path):
        items = list(range(8))
        executor = JournaledExecutor(
            ProcessExecutor(max_workers=2, chunk_size=3),
            CheckpointJournal(tmp_path))
        assert executor.map_ordered(_square_crash_in_worker, items) == \
            _serial(items)

    def test_non_retryable_inner_error_propagates(self, tmp_path):
        class DataErrorInner:
            def map_ordered(self, fn, items, chunk_size=None):
                raise InsufficientDataError("sparse")

        executor = JournaledExecutor(DataErrorInner(),
                                     CheckpointJournal(tmp_path))
        with pytest.raises(InsufficientDataError):
            executor.map_ordered(_square, range(4))

    def test_retry_exhaustion_surfaces_task_failed(self, tmp_path):
        executor = JournaledExecutor(
            ProcessExecutor(max_workers=2,
                            retry=RetryPolicy(max_attempts=2,
                                              backoff_base_s=0.0)),
            CheckpointJournal(tmp_path))
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_ordered(_os_error_everywhere, [1, 2])
        assert excinfo.value.attempts == 2

    def test_checkpoint_skips_completed_tasks(self, tmp_path):
        journal = CheckpointJournal(tmp_path, namespace="test")
        calls = []

        def task(x):
            calls.append(x)
            return x * 3

        first = JournaledExecutor(SerialExecutor(), journal)
        assert first.map_ordered(task, [1, 2, 3]) == [3, 6, 9]
        assert calls == [1, 2, 3]

        resumed = JournaledExecutor(SerialExecutor(), journal)
        assert resumed.map_ordered(task, [1, 2, 3]) == [3, 6, 9]
        assert calls == [1, 2, 3]  # nothing recomputed

        assert resumed.map_ordered(task, [1, 2, 3, 4]) == [3, 6, 9, 12]
        assert calls == [1, 2, 3, 4]  # only the new item ran

    def test_interrupted_run_resumes_where_it_died(self, tmp_path):
        """A run killed mid-sweep leaves finished tasks journaled."""
        journal = CheckpointJournal(tmp_path, namespace="sweep")
        calls = []
        explode_at = [3]

        def task(x):
            if x == explode_at[0]:
                raise KeyboardInterrupt  # simulated ctrl-C / kill
            calls.append(x)
            return x + 100

        executor = JournaledExecutor(SerialExecutor(), journal)
        with pytest.raises(KeyboardInterrupt):
            executor.map_ordered(task, [0, 1, 2, 3, 4])
        assert calls == [0, 1, 2]

        explode_at[0] = None  # the interruption does not recur
        resumed = JournaledExecutor(SerialExecutor(), journal)
        assert resumed.map_ordered(task, [0, 1, 2, 3, 4]) == \
            [100, 101, 102, 103, 104]
        assert calls == [0, 1, 2, 3, 4]  # 0-2 served from the journal

    def test_checkpointed_process_backend_matches_serial(self, tmp_path):
        journal = CheckpointJournal(tmp_path, namespace="proc")
        items = list(range(10))
        expected = _serial(items)
        executor = JournaledExecutor(
            ProcessExecutor(max_workers=2, chunk_size=2), journal)
        assert executor.map_ordered(_square, items) == expected
        # Workers journaled every task; a serial resume recomputes nothing.
        assert len(journal) >= len(items)
        resumed = JournaledExecutor(SerialExecutor(), journal)
        calls = []

        def spy(x):
            calls.append(x)
            return _square(x)

        spy.__module__ = _square.__module__
        spy.__qualname__ = _square.__qualname__
        assert resumed.map_ordered(spy, items) == expected
        assert calls == []
