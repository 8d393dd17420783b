"""The supervisor: the one ambient object every supervision concern hangs on.

A :class:`Supervisor` bundles what the CLI's supervision flags can set — a
:class:`~repro.runtime.deadline.Deadline`, a
:class:`~repro.runtime.breaker.CircuitBreaker` and a
:class:`~repro.runtime.memory.MemoryGovernor` (any subset may be absent) —
and installs them for a run:

    supervisor = Supervisor(deadline_s=120.0, memory_budget_mb=512)
    with supervisor.scope():
        outcome = run_experiment("fig4", seed=3, supervisor=supervisor)

Inside the scope :func:`active_supervisor` resolves to it: every
:func:`check_deadline` checkpoint observes its deadline, the sweep layer
consults its governor for admission control and wave bounding, and the
process backend bounds its pool waits by the deadline and guards its
lost-chunk recovery with the breaker. A hung worker is the retry policy's
business (:attr:`~repro.parallel.retry.RetryPolicy.timeout_s`), not the
supervisor's. Everything the supervisor sheds or trips is recorded through
:func:`repro.obs.record_degradation`, so it lands in the run manifest
exactly like starved-slice degradations — degradation stays visible, never
silent.

All of this composes with, not replaces, the existing resilience: retry
policies still govern re-execution, the checkpoint journal still makes
runs resumable, and with no supervisor entered every checkpoint is a
no-op and the pipeline's behavior (and its obs artifacts) are unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

import repro.obs as obs
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.deadline import Deadline
from repro.runtime.memory import MemoryGovernor

__all__ = ["Supervisor", "active_supervisor", "check_deadline"]


class Supervisor:
    """Compose deadline, breaker and memory governor for a run.

    Scalar conveniences mirror the CLI flags: ``deadline_s`` (a float
    budget or a prebuilt :class:`Deadline`), ``breaker`` (``True`` for a
    default breaker or a prebuilt :class:`CircuitBreaker`) and
    ``memory_budget_mb`` (a float budget or a prebuilt
    :class:`MemoryGovernor`).
    """

    def __init__(
        self,
        deadline_s: Union[None, float, Deadline] = None,
        breaker: Union[None, bool, CircuitBreaker] = None,
        memory_budget_mb: Union[None, float, MemoryGovernor] = None,
    ) -> None:
        if isinstance(deadline_s, Deadline) or deadline_s is None:
            self.deadline: Optional[Deadline] = deadline_s
        else:
            self.deadline = Deadline(float(deadline_s))

        if isinstance(breaker, CircuitBreaker):
            self.breaker: Optional[CircuitBreaker] = breaker
        elif breaker:
            self.breaker = CircuitBreaker(name="stage")
        else:
            self.breaker = None

        if isinstance(memory_budget_mb, MemoryGovernor):
            self.memory: Optional[MemoryGovernor] = memory_budget_mb
        elif memory_budget_mb is not None:
            self.memory = MemoryGovernor.of_mb(float(memory_budget_mb))
        else:
            self.memory = None

        #: Everything this supervisor shed, in order (mirrors the manifest).
        self.shed_log: List[Dict[str, Any]] = []

    @property
    def enabled(self) -> bool:
        """Is any supervision concern configured?"""
        return any((self.deadline, self.breaker, self.memory))

    def shed(self, kind: str, **detail: Any) -> None:
        """Record one shed unit of work (manifest + local log)."""
        entry: Dict[str, Any] = {"kind": kind}
        entry.update(detail)
        self.shed_log.append(entry)
        obs.record_degradation(kind, **detail)
        self.export_gauges()

    def export_gauges(self) -> None:
        """Export live supervision state as first-class gauges.

        Runs at scope entry/exit, after every shed, and (via
        :func:`active_supervisor`) just before each ``/metrics`` scrape, so
        a scraper sees the current breaker state and deadline headroom
        rather than only transition-time values. The deadline gauge reads
        the wall clock, so deterministic runs skip it — their metrics
        artifact is part of the byte-identity contract.
        """
        ctx = obs.current()
        if not ctx.enabled:
            return
        if self.breaker is not None:
            obs.set_gauge("autosens_breaker_state", self.breaker.state_code,
                          breaker=self.breaker.name)
        if self.deadline is not None and not ctx.deterministic:
            obs.set_gauge("autosens_deadline_remaining_s",
                          round(self.deadline.remaining(), 3))

    @contextmanager
    def scope(self) -> Iterator["Supervisor"]:
        """Install this supervisor for a block: :func:`active_supervisor`
        resolves to it, and so the ambient deadline is its deadline."""
        _ACTIVE.append(self)
        self.export_gauges()
        try:
            yield self
        finally:
            _ACTIVE.pop()
            self.export_gauges()

    def summary(self) -> Dict[str, Any]:
        """A manifest-ready account of what supervision did this run."""
        out: Dict[str, Any] = {"shed": len(self.shed_log)}
        if self.deadline is not None:
            out["deadline_s"] = self.deadline.budget_s
            out["deadline_elapsed_s"] = round(self.deadline.elapsed(), 3)
        if self.breaker is not None:
            out["breaker_state"] = self.breaker.state
            out["breaker_trips"] = self.breaker.n_trips
        if self.memory is not None:
            out["memory"] = self.memory.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline.budget_s}s")
        if self.breaker is not None:
            parts.append(f"breaker={self.breaker.state}")
        if self.memory is not None:
            parts.append(
                f"memory={self.memory.soft_limit_bytes // (1024 * 1024)}MB")
        return f"Supervisor({', '.join(parts) or 'idle'})"


#: Stack of entered supervisor scopes; the innermost one governs.
_ACTIVE: List[Supervisor] = []


def active_supervisor() -> Optional[Supervisor]:
    """The innermost entered supervisor, or ``None`` outside any scope."""
    return _ACTIVE[-1] if _ACTIVE else None


def check_deadline(where: str = "") -> None:
    """Cooperative cancellation checkpoint against the ambient deadline.

    The ambient deadline is the innermost entered supervisor's. A no-op
    (one list lookup) when no supervisor is entered — safe to call from
    hot loops on unsupervised runs.
    """
    if _ACTIVE:
        deadline = _ACTIVE[-1].deadline
        if deadline is not None:
            deadline.check(where)
