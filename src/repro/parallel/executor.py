"""Executor backends: ordered, chunked parallel map over independent tasks.

Every fan-out point in the analysis layer (the ``curves_by_*`` sweeps, the
bootstrap replicates, the experiment registry, the workload generator's
candidate chunks) reduces to the same primitive: *map a pure function over
independent items and collect the results in input order*. This module
provides that primitive behind a tiny protocol so callers never care which
backend runs underneath:

- :class:`SerialExecutor` — in-process, zero overhead; the reference
  backend every other backend must match bit-for-bit.
- :class:`ProcessExecutor` — ``concurrent.futures.ProcessPoolExecutor``
  fan-out for CPU-bound NumPy work that does not release the GIL.

Determinism is a hard requirement: results must not depend on the backend
or on scheduling order. Tasks therefore never share RNG state — each task
derives its own stream from a root seed and a stable task name (see
:mod:`repro.parallel.seeding`), and ``map_ordered`` always returns results
in input order.

Every task, on every backend, runs through one in-process loop
(:func:`_run_tasks`): a deadline checkpoint, a keyed ``task`` span when
tracing is on, and a progress report. A process worker runs that loop in a
fresh obs session and returns its results with the session's whole state —
spans, metrics registry, degradations and findings — which the parent
folds in with one merge (:func:`_merge_bundle`), so a process run records
exactly what a serial run records.

The process backend is additionally *crash-tolerant*: a chunk whose worker
dies (``BrokenProcessPool``) or exceeds the retry policy's per-task timeout
is re-executed by the same loop in-process, with retries — pure per-task
seeding makes the recovered results bit-identical to an undisturbed run.
This is the only recovery loop, and a hung worker reaches it the same way
as a slow one: through the chunk timeout. The ambient
:class:`~repro.runtime.supervisor.Supervisor` lends it its circuit breaker.
Task-raised exceptions (data errors) still propagate unchanged.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Protocol,
                    Sequence, Union)

import repro.obs as obs
from repro.errors import ConfigError
from repro.parallel.retry import RetryPolicy, call_with_retry
from repro.runtime.supervisor import active_supervisor, check_deadline

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "EXECUTOR_BACKENDS",
]

#: Names accepted by :func:`resolve_executor`.
EXECUTOR_BACKENDS = ("serial", "process")


class Executor(Protocol):
    """The executor protocol: an ordered map over independent items."""

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item; return results in input order.

        The first task exception propagates to the caller (remaining tasks
        may or may not run, as with the serial backend's fail-fast loop).
        """
        ...  # pragma: no cover - protocol


def _task_name(fn: Callable[[Any], Any]) -> str:
    """A stable human/span name for a task function."""
    return getattr(fn, "__qualname__", type(fn).__name__)


class _Positioned(NamedTuple):
    """An item that runs apart from its sweep, with its index in the sweep."""

    index: int
    item: Any


def _run_tasks(fn: Callable[[Any], Any], items: Sequence[Any],
               base: int = 0, retry: Optional[RetryPolicy] = None) -> List[Any]:
    """The one in-process task loop, shared by every backend.

    Each task first passes a deadline checkpoint. When tracing is on it
    runs under a ``task`` span keyed ``{fn qualname}[{index}]``, where the
    index is the task's position in the sweep: ``base`` plus its position
    in ``items``, or the index a :class:`_Positioned` item carries (the
    pending tasks of a checkpoint resume run as a shorter list). So the
    same task carries the same span id on the serial backend, in a process
    worker, and on a checkpoint resume. ``retry`` marks a lost chunk re-executed in-process:
    each task then goes through :func:`call_with_retry`, guarded by the
    ambient supervisor's circuit breaker if it has one, and its span
    carries ``recovered=True``.
    """
    name = _task_name(fn)
    traced = obs.enabled()
    extra = {} if retry is None else {"recovered": True}
    breaker = None
    if retry is not None:
        supervisor = active_supervisor()
        breaker = supervisor.breaker if supervisor is not None else None
    out: List[Any] = []
    for i, item in enumerate(items):
        index = base + i
        if isinstance(item, _Positioned):
            index, item = item
        key = f"{name}[{index}]"
        check_deadline(f"task {key}")
        span = (obs.span("task", key=key, task=name, index=index, **extra)
                if traced else obs.NOOP_SPAN)
        with span:
            out.append(fn(item) if retry is None else
                       call_with_retry(fn, item, policy=retry, task_name=key,
                                       breaker=breaker))
        obs.report_progress(name, done=1)
    return out


class SerialExecutor:
    """Run tasks inline, one after another (the reference backend)."""

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        obs.report_progress(_task_name(fn), total=len(items))
        return _run_tasks(fn, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _obs_spec() -> Optional[Dict[str, Any]]:
    """What a worker needs to rebuild a compatible tracer (None when off)."""
    if not obs.enabled():
        return None
    ctx = obs.current()
    return {"trace_id": ctx.tracer.trace_id,
            "deterministic": ctx.tracer.deterministic}


def _apply_chunk(payload: tuple) -> tuple:
    """Top-level (picklable) helper: run one chunk in a worker process.

    The payload is ``(fn, chunk, base, obs_spec)``; the reply is
    ``(results, bundle)``. Untraced, the bundle is ``None``. Traced, the
    chunk runs in a fresh worker session and the bundle is that session's
    whole state — ``(span_records, metrics, degradations, findings)`` —
    which :func:`_merge_bundle` folds into the parent. The worker tracer
    shares the parent's ``trace_id`` (keyed ids match the serial run) but
    namespaces its path-based ids per chunk, so two workers' internal
    spans can never collide.
    """
    fn, chunk, base, spec = payload
    if spec is None:
        return _run_tasks(fn, chunk, base=base), None
    from repro.obs import session
    from repro.obs.trace import Tracer

    tracer = Tracer(
        trace_id=spec["trace_id"],
        namespace=f"{spec['trace_id']}/chunk{base}",
        deterministic=spec["deterministic"],
    )
    with session(enabled=True, level="error",
                 deterministic=spec["deterministic"],
                 run_id=spec["trace_id"]) as ctx:
        ctx.tracer = tracer
        results = _run_tasks(fn, chunk, base=base)
    return results, (tracer.finished(), ctx.metrics, ctx.degradations,
                     ctx.findings)


def _merge_bundle(bundle: tuple, parent_id: Optional[str], tid: int) -> None:
    """Fold a worker's obs bundle into the active context.

    Spans are adopted under ``parent_id``; metrics merge (counters add,
    gauges take the worker's last write); degradations and findings are
    appended as recorded. Nothing is re-recorded, so every counter —
    ``autosens_degradations_total`` and ``autosens_health_findings_total``
    included — counts each event once, as on the serial backend.
    """
    records, metrics, degradations, findings = bundle
    ctx = obs.current()
    ctx.tracer.adopt(records, parent_id=parent_id, tid=tid)
    ctx.metrics.merge(metrics)
    ctx.degradations.extend(degradations)
    ctx.findings.extend(findings)


def _drop_pool(pool) -> None:
    """Shut ``pool`` down without waiting, and end its workers.

    A worker stuck in a dropped chunk would otherwise keep running, and the
    interpreter waits for it at exit. Python 3.11 has no public way to kill
    a pool's workers, so this reads the pool's process table.
    """
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.terminate()


class ProcessExecutor:
    """Fan tasks out over worker processes, preserving input order.

    Items are grouped into chunks (amortizing pickling and process
    round-trips), submitted to a ``ProcessPoolExecutor``, and re-assembled
    in input order regardless of completion order. ``fn`` and the items
    must be picklable — use module-level task functions.

    ``retry`` (a :class:`~repro.parallel.retry.RetryPolicy`) bounds each
    chunk's wall-clock via ``timeout_s`` and governs the serial re-execution
    of chunks lost to worker crashes or timeouts. The default policy
    recovers crashes but applies no timeout. A worker that hangs without
    dying is caught by that timeout: its chunk is recomputed in-process
    (bit-identically) and the pool is dropped with its workers ended.

    Supervision is ambient. Inside a
    :class:`~repro.runtime.supervisor.Supervisor` scope, the supervisor's
    breaker guards the recovery loop (see :func:`_run_tasks`) and its
    deadline additionally bounds every blocking wait on a chunk: an
    over-budget map raises
    :class:`~repro.errors.DeadlineExceededError` at the next chunk
    boundary, or as soon as the budget ends a wait, and drops the pool
    with its queued chunks instead of waiting out a stuck pool.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_workers = max_workers or max(1, os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.retry = retry or RetryPolicy()

    def _chunks(self, items: Sequence[Any], chunk_size: Optional[int]) -> List[Sequence[Any]]:
        size = chunk_size or self.chunk_size
        if size is None:
            # Default: just enough chunks to keep every worker busy without
            # oversized pickles; at least one item per chunk.
            size = max(1, -(-len(items) // (4 * self.max_workers)))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        items = list(items)
        if not items:
            return []
        obs.report_progress(_task_name(fn), total=len(items))
        if len(items) == 1 or self.max_workers == 1:
            return _run_tasks(fn, items)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        chunks = self._chunks(items, chunk_size)
        spec = _obs_spec()
        bases: List[int] = []
        base = 0
        for chunk in chunks:
            bases.append(base)
            base += len(chunk)
        timeout = self.retry.timeout_s
        supervisor = active_supervisor()
        deadline = supervisor.deadline if supervisor is not None else None
        out: List[Any] = []
        recovered = False
        chunk_span = obs.span("pool_map", n_items=len(items),
                              n_chunks=len(chunks),
                              backend="process")
        pool = ProcessPoolExecutor(max_workers=min(self.max_workers, len(chunks)))
        try:
            with chunk_span:
                futures = [pool.submit(_apply_chunk, (fn, chunk, b, spec))
                           for chunk, b in zip(chunks, bases)]
                for future, chunk, b in zip(futures, chunks, bases):  # input order
                    if deadline is not None:
                        deadline.check("pool_map")
                    wait_s = (deadline.timeout_or(timeout)
                              if deadline is not None else timeout)
                    try:
                        results, bundle = future.result(timeout=wait_s)
                        if bundle is not None:
                            _merge_bundle(bundle, chunk_span.span_id, 1 + b)
                        out.extend(results)
                        obs.report_progress(_task_name(fn), done=len(chunk))
                    except (BrokenProcessPool, FutureTimeout, OSError) as exc:
                        if isinstance(exc, FutureTimeout) and deadline is not None:
                            # The run's budget, not the chunk's, ended the wait.
                            deadline.check("pool_map")
                        # A worker died or the chunk blew its budget. The pool
                        # may be unusable (a break fails every in-flight
                        # future), so recover this chunk serially; purity makes
                        # the result bit-identical.
                        recovered = True
                        reason = ("timeout" if isinstance(exc, FutureTimeout)
                                  else "crash" if isinstance(exc, BrokenProcessPool)
                                  else "os-error")
                        obs.inc("autosens_executor_recoveries_total",
                                reason=reason)
                        out.extend(_run_tasks(fn, chunk, base=b,
                                              retry=self.retry))
        except BaseException:
            # Chunks may still be queued or running: drop them, don't wait.
            _drop_pool(pool)
            raise
        if recovered:
            # After a timeout a worker may still be running; don't block on it.
            _drop_pool(pool)
        else:
            pool.shutdown(wait=True)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(max_workers={self.max_workers})"


ExecutorSpec = Union[None, str, int, Executor]


def resolve_executor(spec: ExecutorSpec) -> Executor:
    """Turn a user-facing executor spec into an :class:`Executor`.

    ``None`` or ``"serial"`` → :class:`SerialExecutor`; ``"process"`` →
    :class:`ProcessExecutor` with default workers; an integer ``n`` →
    :class:`ProcessExecutor` with ``n`` workers; an object implementing
    ``map_ordered`` is returned as-is.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "process":
            return ProcessExecutor()
        raise ConfigError(
            f"unknown executor backend {spec!r}; pick one of {EXECUTOR_BACKENDS}"
        )
    if isinstance(spec, int):
        return ProcessExecutor(max_workers=spec)
    if hasattr(spec, "map_ordered"):
        return spec
    raise ConfigError(f"cannot interpret executor spec {spec!r}")
