"""Cross-slice parallel execution for the analysis layer.

The AutoSens sweeps (``curves_by_*``), the bootstrap uncertainty bands, the
experiment registry and the workload generator all fan out over independent
work items. :mod:`repro.parallel` gives them one executor protocol with
interchangeable backends (serial, process pool) plus deterministic per-task
seeding, with the invariant that **every backend produces bit-identical
results to the serial reference**. Every backend runs its tasks through
one in-process task loop; a process worker hands its whole observability
state (spans, metrics, degradations, findings) back in one bundle, so the
parent's records match a serial run's.

The fault-tolerant layer keeps that invariant under partial failure.
:class:`ProcessExecutor` survives worker crashes and timeouts by
re-executing a lost chunk in-process through the same task loop, under a
:class:`RetryPolicy` (exponential backoff, per-task timeouts); that is the
only recovery loop, and the ambient
:class:`~repro.runtime.supervisor.Supervisor`'s breaker plugs into it. :class:`CheckpointJournal` makes interrupted sweeps resumable,
and :class:`JournaledExecutor` puts one in front of any backend.
"""

from repro.parallel.checkpoint import CheckpointJournal, JournaledExecutor
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.parallel.retry import RetryPolicy, call_with_retry, is_retryable
from repro.parallel.seeding import task_seeds, task_streams

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "RetryPolicy",
    "CheckpointJournal",
    "JournaledExecutor",
    "call_with_retry",
    "is_retryable",
    "resolve_executor",
    "task_seeds",
    "task_streams",
]
