"""Deadline budgets and cooperative cancellation.

A :class:`Deadline` is a wall-clock budget created once at the top of a
supervised run and consulted at *cooperative cancellation checkpoints*
sprinkled through the expensive stages (the sweep loops, the alpha
estimation, the preference computation, executor waits). Python cannot
preempt a running NumPy kernel, so cancellation is always cooperative: the
pipeline checks between units of work and stops cleanly — either raising
:class:`~repro.errors.DeadlineExceededError` (strict) or shedding the
remaining work as recorded ``deadline_exceeded`` degradations (under a
:class:`~repro.core.pipeline.DegradePolicy`).

The active deadline is the entered
:class:`~repro.runtime.supervisor.Supervisor`'s: inside its scope every
:func:`~repro.runtime.supervisor.check_deadline` call in the process
observes it without threading a parameter through dozens of signatures.
With no supervisor entered a checkpoint costs one list lookup.

The clock is injectable so tests can drive expiry without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ConfigError, DeadlineExceededError

__all__ = ["Deadline"]


class Deadline:
    """A wall-clock budget with an injectable monotonic clock.

    >>> deadline = Deadline(budget_s=60.0)
    >>> deadline.remaining()   # seconds left, clamped at 0
    >>> deadline.check("sweep")  # raises DeadlineExceededError when spent
    """

    __slots__ = ("budget_s", "_clock", "_t0")

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s <= 0:
            raise ConfigError(f"budget_s must be positive, got {budget_s}")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._t0 = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left in the budget, clamped at zero."""
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        """Has the budget been spent?"""
        return self.elapsed() >= self.budget_s

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget_s:
            at = f" at {where}" if where else ""
            raise DeadlineExceededError(
                f"deadline of {self.budget_s:.3g}s exceeded{at} "
                f"({elapsed:.3g}s elapsed)",
                budget_s=self.budget_s,
                elapsed_s=elapsed,
            )

    def timeout_or(self, default: Optional[float]) -> Optional[float]:
        """The tighter of ``remaining()`` and a caller's own timeout.

        Executors use this to bound blocking waits: a pending chunk must
        never outlive the run's budget, whatever per-task timeout the
        retry policy asked for.
        """
        remaining = self.remaining()
        if default is None:
            return remaining
        return min(default, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget_s={self.budget_s}, "
                f"remaining={self.remaining():.3g}s)")
