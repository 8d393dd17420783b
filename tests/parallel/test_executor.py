"""The executor protocol: ordering, chunking, spec resolution, seeding,
and the hand-off of a worker's observability state."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import ConfigError, DeadlineExceededError
from repro.parallel import (
    EXECUTOR_BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    task_seeds,
    task_streams,
)
from repro.runtime import Deadline, Supervisor


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _tag(x):
    return (x, x % 3)


def _record_metrics(x):
    """Module-level task that writes a counter and a gauge."""
    obs.inc("autosens_test_tasks_total", parity=x % 2)
    obs.set_gauge("autosens_test_last_item", x)
    return x


class TestSerialExecutor:
    def test_preserves_input_order(self):
        assert SerialExecutor().map_ordered(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        assert SerialExecutor().map_ordered(_square, []) == []

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            SerialExecutor().map_ordered(boom, [1])


class TestProcessExecutor:
    def test_matches_serial_in_order(self):
        items = list(range(23))
        expected = SerialExecutor().map_ordered(_square, items)
        assert ProcessExecutor(max_workers=2).map_ordered(_square, items) == expected

    def test_explicit_chunk_size(self):
        items = list(range(10))
        result = ProcessExecutor(max_workers=2, chunk_size=3).map_ordered(_tag, items)
        assert result == [_tag(i) for i in items]

    def test_single_item_runs_inline(self):
        assert ProcessExecutor(max_workers=4).map_ordered(_square, [5]) == [25]

    def test_empty_items(self):
        assert ProcessExecutor(max_workers=2).map_ordered(_square, []) == []

    def test_default_chunking_covers_all_items(self):
        executor = ProcessExecutor(max_workers=2)
        chunks = executor._chunks(list(range(17)), None)
        assert sum(len(c) for c in chunks) == 17
        assert all(len(c) >= 1 for c in chunks)
        flattened = [x for chunk in chunks for x in chunk]
        assert flattened == list(range(17))

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError):
            ProcessExecutor(max_workers=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            ProcessExecutor(chunk_size=0)


class TestDeadline:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ProcessExecutor(max_workers=1)],
        ids=["serial", "process-one-worker"])
    def test_expired_deadline_raises_before_any_task(self, executor):
        clock = iter([0.0] + [1e6] * 100)
        deadline = Deadline(budget_s=1.0, clock=lambda: next(clock))
        with Supervisor(deadline_s=deadline).scope():
            with pytest.raises(DeadlineExceededError):
                executor.map_ordered(_square, [1, 2, 3])


class TestWorkerObsHandOff:
    def test_worker_metrics_render_as_on_the_serial_backend(self):
        rendered = []
        for executor in (SerialExecutor(), ProcessExecutor(max_workers=2)):
            with obs.session(enabled=True, deterministic=True,
                             run_id="handoff") as ctx:
                assert executor.map_ordered(_record_metrics, range(8)) \
                    == list(range(8))
            rendered.append(ctx.metrics.render_prometheus())
        assert "autosens_test_tasks_total" in rendered[0]
        assert "autosens_test_last_item 7" in rendered[0]
        assert rendered[1] == rendered[0]


class TestResolveExecutor:
    def test_none_and_serial_names(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_process_name_and_worker_count(self):
        assert isinstance(resolve_executor("process"), ProcessExecutor)
        ex = resolve_executor(3)
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 3

    def test_executor_objects_pass_through(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_unknown_backend_name(self):
        with pytest.raises(ConfigError, match="unknown executor backend"):
            resolve_executor("threads")

    def test_uninterpretable_spec(self):
        with pytest.raises(ConfigError):
            resolve_executor(3.5)

    def test_backends_registry(self):
        for name in EXECUTOR_BACKENDS:
            resolve_executor(name)  # every advertised name must resolve


class TestTaskSeeding:
    def test_seeds_are_pure_in_root_and_name(self):
        assert task_seeds(42, "sweep", 5) == task_seeds(42, "sweep", 5)

    def test_seeds_differ_across_indices_and_names(self):
        seeds = task_seeds(42, "sweep", 8)
        assert len(set(seeds)) == len(seeds)
        assert task_seeds(42, "other", 8) != seeds

    def test_seeds_differ_across_roots(self):
        assert task_seeds(1, "sweep", 4) != task_seeds(2, "sweep", 4)

    def test_prefix_stability(self):
        """Growing the fan-out must not reseed the existing tasks."""
        assert task_seeds(7, "chunk", 3) == task_seeds(7, "chunk", 5)[:3]

    def test_streams_match_seedless_rebuild(self):
        streams = task_streams(11, "bootstrap", 3)
        again = task_streams(11, "bootstrap", 3)
        for a, b in zip(streams, again):
            assert np.array_equal(a.integers(0, 1000, 10), b.integers(0, 1000, 10))
