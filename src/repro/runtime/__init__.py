"""Supervised runtime: budgets, breakers, watchdogs and memory governance.

The executor's recovery loop handles *failures* — crashed workers,
timed-out chunks — and ingestion handles dirty rows. This package handles
*degradation that never fails*: a run that would blow past its wall-clock
budget, a worker that hangs without dying, a dependency that keeps
failing, a sweep whose working set outgrows memory. Four concerns, one
composition point:

- :mod:`repro.runtime.deadline` — wall-clock budgets with cooperative
  cancellation checkpoints through the pipeline's expensive stages.
- :mod:`repro.runtime.breaker` — closed/open/half-open circuit breakers
  that stop retry loops from feeding known-bad dependencies.
- :mod:`repro.runtime.watchdog` — heartbeat-based detection (and
  SIGKILL + requeue) of live-but-stuck process workers.
- :mod:`repro.runtime.memory` — working-set estimation, sweep admission
  control, and LRU disk spill of completed slices.

:class:`~repro.runtime.supervisor.Supervisor` composes any subset and is
the only way in: inside its scope the deadline is ambient, the sweep
layer reads the memory governor, and the process backend reads the
breaker and the watchdog (:func:`active_supervisor`). Every shed slice,
opened breaker, killed worker and spilled result is *recorded* through
the degrade/manifest machinery, never silent. With no supervisor
installed, every hook in the pipeline is a no-op and behavior (including
obs artifacts) is byte-identical to an unsupervised build.
"""

from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.runtime.deadline import (
    Deadline,
    active_deadline,
    check_deadline,
    deadline_scope,
)
from repro.runtime.memory import (
    MemoryGovernor,
    estimate_counts_bytes,
    estimate_nbytes,
)
from repro.runtime.supervisor import Supervisor, active_supervisor
from repro.runtime.watchdog import HeartbeatWriter, TaskHeartbeat, Watchdog

__all__ = [
    "Deadline",
    "deadline_scope",
    "active_deadline",
    "check_deadline",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Watchdog",
    "HeartbeatWriter",
    "TaskHeartbeat",
    "MemoryGovernor",
    "estimate_nbytes",
    "estimate_counts_bytes",
    "Supervisor",
    "active_supervisor",
]
