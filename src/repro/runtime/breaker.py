"""Circuit breakers: stop hammering a dependency that is known bad.

A :class:`CircuitBreaker` guards a flaky call with the classic
three-state machine. A supervised run's breaker guards two calls: the
CLI's ingestion reader, and each attempt of the process backend's
lost-chunk recovery.

- **closed** — calls pass through; consecutive failures are counted.
- **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: every call is refused instantly with
  :class:`~repro.errors.CircuitOpenError` until ``reset_timeout_s`` has
  passed. Refusing is the point — a retry loop that keeps feeding a dead
  dependency just converts one failure into a multiplied outage.
- **half-open** — after the cooldown, exactly one probe call is admitted;
  success closes the circuit, failure re-opens it (with the cooldown
  restarted).

The breaker composes with :class:`~repro.parallel.retry.RetryPolicy`
through :func:`repro.parallel.retry.call_with_retry`'s ``breaker``
parameter — the executor passes the ambient supervisor's breaker there —
so an open circuit short-circuits the retry loop instead of burning
attempts into a known-bad dependency.

State is exported as the ``autosens_breaker_state`` gauge (0 closed,
1 half-open, 2 open) on every transition, and trips are counted in
``autosens_breaker_transitions_total``. The clock is injectable so tests
drive the cooldown without sleeping.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import repro.obs as obs
from repro.errors import CircuitOpenError, ConfigError

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding of each state (exported on transitions).
_STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """A named closed/open/half-open circuit breaker; every exception a
    guarded call raises counts as a failure."""

    def __init__(
        self,
        name: str = "default",
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        #: Counters readable without the metrics registry.
        self.n_trips = 0
        self.n_refused = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state, advancing open → half-open after cooldown."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._transition(HALF_OPEN)
        return self._state

    @property
    def state_code(self) -> int:
        """Gauge encoding of :attr:`state` (0 closed, 1 half-open, 2 open)."""
        return _STATE_CODES[self.state]

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        previous, self._state = self._state, state
        obs.set_gauge("autosens_breaker_state", _STATE_CODES[state],
                      breaker=self.name)
        obs.inc("autosens_breaker_transitions_total",
                breaker=self.name, to=state)
        if state == OPEN:
            self.n_trips += 1
            obs.record_degradation(
                "breaker_open", breaker=self.name,
                failures=self._failures,
                detail=f"circuit {self.name!r} opened after "
                       f"{self._failures} consecutive failures",
            )
        del previous  # transitions are fully described by the new state

    # -- the caller protocol -------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now? (half-open admits the one probe)"""
        return self.state != OPEN

    def retry_after(self) -> float:
        """Seconds until an open circuit will admit a half-open probe."""
        if self.state != OPEN:
            return 0.0
        return max(
            0.0, self.reset_timeout_s - (self._clock() - self._opened_at)
        )

    def record_success(self) -> None:
        """A wrapped call succeeded: close the circuit, reset the count."""
        self._failures = 0
        if self._state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """A wrapped call failed: count it; trip or re-open as needed."""
        self._failures += 1
        if self._state == HALF_OPEN or self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self._transition(OPEN)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Invoke ``fn`` through the breaker.

        Raises :class:`~repro.errors.CircuitOpenError` without calling when
        the circuit is open; otherwise forwards the call and records the
        outcome.
        """
        if not self.allow():
            self.n_refused += 1
            obs.inc("autosens_breaker_refusals_total", breaker=self.name)
            raise CircuitOpenError(self.name, retry_after_s=self.retry_after())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker({self.name!r}, state={self.state}, "
                f"failures={self._failures}/{self.failure_threshold})")
