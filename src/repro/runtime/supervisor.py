"""The supervisor: one object composing every supervision concern.

A :class:`Supervisor` bundles a :class:`~repro.runtime.deadline.Deadline`,
a :class:`~repro.runtime.breaker.CircuitBreaker`, a
:class:`~repro.runtime.watchdog.Watchdog` and a
:class:`~repro.runtime.memory.MemoryGovernor` (any subset may be absent)
and installs them for a run:

    supervisor = Supervisor(deadline_s=120.0, memory_budget_mb=512)
    with supervisor.scope():
        outcome = run_experiment("fig4", seed=3, supervisor=supervisor)

Inside the scope the deadline is ambient (every
:func:`~repro.runtime.deadline.check_deadline` checkpoint observes it),
the watchdog thread supervises worker heartbeats, the sweep layer
consults :func:`active_supervisor` for admission control and result
spilling, and the process backend consults it for the watchdog's
heartbeat shim and for the breaker that guards its lost-chunk recovery.
Everything the supervisor sheds, trips, kills or spills is recorded
through :func:`repro.obs.record_degradation`, so it lands in the run
manifest exactly like starved-slice degradations — degradation stays
visible, never silent.

All of this composes with, not replaces, the existing resilience: retry
policies still govern re-execution, the checkpoint journal still makes
runs resumable, and with no supervisor installed every checkpoint is a
no-op and the pipeline's behavior (and its obs artifacts) are unchanged.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import repro.obs as obs
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.deadline import Deadline, deadline_scope
from repro.runtime.memory import MemoryGovernor
from repro.runtime.watchdog import Watchdog

__all__ = ["Supervisor", "active_supervisor"]


class Supervisor:
    """Compose deadline, breaker, watchdog and memory governor for a run.

    Scalar conveniences mirror the CLI flags: ``deadline_s`` (a float
    budget or a prebuilt :class:`Deadline`), ``memory_budget_mb`` (a float
    budget or a prebuilt :class:`MemoryGovernor`), ``breaker`` (``True``
    for a default breaker or a prebuilt :class:`CircuitBreaker`) and
    ``watchdog`` (``True`` for a default watchdog, a stall timeout float,
    or a prebuilt :class:`Watchdog`). ``workdir`` hosts the heartbeat
    spool and spill tier; a temp directory is created when omitted.
    """

    def __init__(
        self,
        deadline_s: Union[None, float, Deadline] = None,
        breaker: Union[None, bool, CircuitBreaker] = None,
        watchdog: Union[None, bool, float, Watchdog] = None,
        memory_budget_mb: Union[None, float, MemoryGovernor] = None,
        workdir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.workdir = Path(
            workdir if workdir is not None
            else tempfile.mkdtemp(prefix="autosens-supervisor-")
        )
        self.workdir.mkdir(parents=True, exist_ok=True)

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

        if isinstance(watchdog, Watchdog):
            self.watchdog: Optional[Watchdog] = watchdog
        elif watchdog:
            stall = 30.0 if watchdog is True else float(watchdog)
            self.watchdog = Watchdog(
                self.workdir / "heartbeats", stall_timeout_s=stall
            )
        else:
            self.watchdog = None

        if isinstance(memory_budget_mb, MemoryGovernor):
            self.memory: Optional[MemoryGovernor] = memory_budget_mb
        elif memory_budget_mb is not None:
            self.memory = MemoryGovernor.of_mb(
                float(memory_budget_mb), spill_dir=self.workdir / "spill"
            )
        else:
            self.memory = None

        #: Everything this supervisor shed, in order (mirrors the manifest).
        self.shed_log: List[Dict[str, Any]] = []

    @property
    def enabled(self) -> bool:
        """Is any supervision concern configured?"""
        return any(
            (self.deadline, self.breaker, self.watchdog, self.memory)
        )

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
        a scraper sees current breaker state, memory-governor occupancy and
        deadline headroom rather than only transition-time values. The
        deadline gauge reads the wall clock, so deterministic runs skip it —
        their metrics artifact is part of the byte-identity contract.
        """
        ctx = obs.current()
        if not ctx.enabled:
            return
        if self.breaker is not None:
            obs.set_gauge("autosens_breaker_state", self.breaker.state_code,
                          breaker=self.breaker.name)
        if self.memory is not None:
            obs.set_gauge("autosens_memory_governor_bytes",
                          float(self.memory.held_bytes()))
        if self.watchdog is not None:
            obs.set_gauge("autosens_watchdog_requeues",
                          float(len(self.watchdog.kills)))
        if self.deadline is not None and not ctx.deterministic:
            obs.set_gauge("autosens_deadline_remaining_s",
                          round(self.deadline.remaining(), 3))

    @contextmanager
    def scope(self) -> Iterator["Supervisor"]:
        """Install this supervisor for a block: ambient deadline, running
        watchdog, and :func:`active_supervisor` resolution."""
        _ACTIVE.append(self)
        if self.watchdog is not None:
            self.watchdog.start()
        self.export_gauges()
        try:
            with deadline_scope(self.deadline):
                yield self
        finally:
            if self.watchdog is not None:
                self.watchdog.stop()
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
        if self.watchdog is not None:
            out["watchdog_kills"] = len(self.watchdog.kills)
        if self.memory is not None:
            out["memory"] = self.memory.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline.budget_s}s")
        if self.breaker is not None:
            parts.append(f"breaker={self.breaker.state}")
        if self.watchdog is not None:
            parts.append("watchdog=on")
        if self.memory is not None:
            parts.append(
                f"memory={self.memory.soft_limit_bytes // (1024 * 1024)}MB")
        return f"Supervisor({', '.join(parts) or 'idle'})"


#: Stack of entered supervisor scopes; the innermost one governs sweeps.
_ACTIVE: List[Supervisor] = []


def active_supervisor() -> Optional[Supervisor]:
    """The innermost entered supervisor, or ``None`` outside any scope."""
    return _ACTIVE[-1] if _ACTIVE else None
