"""Exception hierarchy for the AutoSens reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.

Taxonomy
--------

The hierarchy separates *what went wrong* so callers (and the CLI, which
maps each class to a distinct exit code) can react differently:

- :class:`ConfigError` — the caller asked for something incoherent; fix the
  request, not the data. CLI exit code 2.
- :class:`SchemaError` — a single record or file violates the expected
  shape. Raised eagerly under the ``strict`` ingest policy; routed to the
  quarantine sink under ``lenient``/``quarantine`` (see
  :mod:`repro.telemetry.ingest`). CLI exit code 3.
- :class:`IngestError` — the data as a whole is too dirty: the share of bad
  rows exceeded the ingest policy's error budget. Carries the
  :class:`~repro.telemetry.ingest.IngestReport` describing what was
  rejected and why. CLI exit code 4.
- :class:`EmptyDataError` / :class:`InsufficientDataError` — the request
  was fine and the rows were well-formed, but there is nothing (or not
  enough) to estimate from. A :class:`~repro.core.pipeline.DegradePolicy`
  can downgrade sweep-level occurrences to recorded warnings. CLI exit
  code 5.
- :class:`PrivacyError` — the operation would reveal a too-small user
  aggregate. Never downgraded. CLI exit code 6.
- :class:`TaskFailedError` — the fault-tolerant runtime exhausted its
  retries for one task; carries the task name, attempt count and last
  cause (see :mod:`repro.parallel.retry`). CLI exit code 7.
- :class:`DeadlineExceededError` — a supervised run blew its wall-clock
  budget and was cooperatively cancelled (see
  :mod:`repro.runtime.deadline`). CLI exit code 8.
- :class:`CircuitOpenError` — a call was refused because its circuit
  breaker is open after repeated failures (see
  :mod:`repro.runtime.breaker`). CLI exit code 9.
- :class:`MemoryBudgetError` — the memory governor refused an allocation
  that cannot fit the configured budget (see
  :mod:`repro.runtime.memory`). CLI exit code 10.
"""

from __future__ import annotations

from typing import List, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A telemetry record or log file violates the expected schema.

    ``violations`` lists every problem a validating artifact loader found;
    it is ``[message]`` when only one was raised.
    """

    def __init__(self, message: str,
                 violations: Optional[List[str]] = None) -> None:
        super().__init__(message)
        self.violations = list(violations) if violations else [message]


class IngestError(ReproError):
    """Too many bad rows: the ingest policy's error budget was exceeded.

    ``report`` is the :class:`~repro.telemetry.ingest.IngestReport`
    accumulated up to the point of failure (row counts, per-reason
    breakdown, quarantine path).
    """

    def __init__(self, message: str, report: Optional[object] = None) -> None:
        super().__init__(message)
        self.report = report


class EmptyDataError(ReproError):
    """An analysis was attempted on an empty data set or empty slice."""


class InsufficientDataError(ReproError):
    """Data exists but is too sparse for the requested estimate.

    For example: an NLP curve was requested for a latency range whose bins
    have no unbiased mass, or an alpha factor for a time slot with no actions.
    """


class ConfigError(ReproError):
    """A configuration object is internally inconsistent."""


class PrivacyError(ReproError):
    """An operation would reveal information about too small a user group.

    The paper analyzes only large user aggregates; the telemetry layer
    enforces a minimum aggregate size before returning per-group statistics.
    """


class TaskFailedError(ReproError):
    """A runtime task kept failing after every allowed retry.

    Raised by :func:`repro.parallel.retry.call_with_retry` (and so by the
    process backend's lost-chunk recovery) once a task has exhausted its
    :class:`~repro.parallel.retry.RetryPolicy`. The original exception is
    preserved both as ``last_cause`` and as ``__cause__`` (so tracebacks
    chain normally).
    """

    def __init__(
        self,
        task_name: str,
        attempts: int,
        last_cause: Optional[BaseException] = None,
    ) -> None:
        cause = f": {last_cause}" if last_cause is not None else ""
        super().__init__(
            f"task {task_name!r} failed after {attempts} attempt(s){cause}"
        )
        self.task_name = task_name
        self.attempts = attempts
        self.last_cause = last_cause


class DeadlineExceededError(ReproError):
    """A supervised run exceeded its wall-clock budget.

    Raised at cooperative cancellation checkpoints (sweep loops, the alpha
    and preference stages, executor waits) once the active
    :class:`~repro.runtime.deadline.Deadline` has expired. Under a
    :class:`~repro.core.pipeline.DegradePolicy` with
    ``on_over_budget="shed"`` the sweep layer converts this into recorded
    ``deadline_exceeded`` degradations instead of propagating it.
    """

    def __init__(self, message: str, budget_s: Optional[float] = None,
                 elapsed_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class CircuitOpenError(ReproError):
    """A circuit breaker refused the call because its circuit is open.

    Carries the breaker name and how long until the breaker will admit a
    half-open probe, so callers can distinguish "dependency known bad,
    back off" from the underlying failure itself.
    """

    def __init__(self, name: str, retry_after_s: float = 0.0) -> None:
        super().__init__(
            f"circuit {name!r} is open; retry after {retry_after_s:.3g}s"
        )
        self.breaker_name = name
        self.retry_after_s = retry_after_s


class MemoryBudgetError(ReproError):
    """The memory governor cannot admit an allocation within its budget.

    Raised when a single working set is estimated to exceed the hard
    memory budget — the tensor simply does not fit.
    """

    def __init__(self, message: str, requested_bytes: Optional[int] = None,
                 budget_bytes: Optional[int] = None) -> None:
        super().__init__(message)
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes
