"""Supervised runtime: budgets, breakers and memory governance.

The executor's recovery loop handles *failures* — crashed workers,
timed-out chunks (a hung worker is one: its chunk outlives
:attr:`~repro.parallel.retry.RetryPolicy.timeout_s`) — and ingestion
handles dirty rows. This package handles *degradation that never fails*:
a run that would blow past its wall-clock budget, a dependency that keeps
failing, a sweep whose working set outgrows memory. Three concerns, one
composition point:

- :mod:`repro.runtime.deadline` — wall-clock budgets with cooperative
  cancellation checkpoints through the pipeline's expensive stages.
- :mod:`repro.runtime.breaker` — closed/open/half-open circuit breakers
  that stop retry loops from feeding known-bad dependencies.
- :mod:`repro.runtime.memory` — working-set estimation, sweep admission
  control and wave bounding.

:class:`~repro.runtime.supervisor.Supervisor` composes any subset and is
the only way in: inside its scope :func:`active_supervisor` resolves to
it, every :func:`check_deadline` observes its deadline, the sweep layer
reads its memory governor, and the process backend reads its breaker.
Every shed slice and opened breaker is *recorded* through the
degrade/manifest machinery, never silent. With no supervisor entered,
every hook in the pipeline is a no-op and behavior (including obs
artifacts) is byte-identical to an unsupervised build.
"""

from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryGovernor, estimate_counts_bytes
from repro.runtime.supervisor import (
    Supervisor,
    active_supervisor,
    check_deadline,
)

__all__ = [
    "Deadline",
    "check_deadline",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "MemoryGovernor",
    "estimate_counts_bytes",
    "Supervisor",
    "active_supervisor",
]
