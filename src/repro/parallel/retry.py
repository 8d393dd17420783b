"""Retry-with-backoff and per-task timeout semantics.

A :class:`RetryPolicy` says how often to re-attempt a failed task and how
long to wait between attempts (exponential backoff, capped). Delays are
deterministic, and the sleep function is injectable so tests run
instantly.

Data errors (:class:`~repro.errors.ReproError`) are *not* retried by
default: a slice that is too sparse stays too sparse, and retrying it only
burns time. The retryable set targets infrastructure faults — crashed
workers, broken pools, timeouts, transient OS errors.

A :class:`~repro.runtime.breaker.CircuitBreaker` can be threaded through
:func:`call_with_retry`: attempts route through the breaker, so once the
circuit opens the retry loop stops immediately with
:class:`~repro.errors.CircuitOpenError` instead of burning its remaining
attempts into a known-bad dependency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type

import repro.obs as obs
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    ReproError,
    TaskFailedError,
)

__all__ = ["RetryPolicy", "call_with_retry", "is_retryable"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to attempt a task and how long to back off.

    ``timeout_s`` is a *per-attempt* budget enforced by executors that can
    bound a task (the process backend); in-process callers cannot preempt
    a running function, so they ignore it. ``max_attempts=1`` means "no
    retries" — the first failure is final.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")

    def delays(self) -> Iterator[float]:
        """The capped-exponential backoff sequence, one delay per retry."""
        delay = self.backoff_base_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_backoff_s)
            delay *= self.backoff_factor


#: Exception types worth a retry: infrastructure, not data.
_RETRYABLE: Tuple[Type[BaseException], ...] = (OSError, TimeoutError)


def is_retryable(exc: BaseException) -> bool:
    """Should this failure be re-attempted?

    Library data errors are deterministic — never retried. Everything that
    smells like infrastructure (broken pools inherit from OSError or
    RuntimeError raised by concurrent.futures, timeouts, pickling hiccups
    under memory pressure) is.
    """
    if isinstance(exc, ReproError):
        return False
    if isinstance(exc, _RETRYABLE):
        return True
    try:  # BrokenExecutor covers BrokenProcessPool
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):
            return True
    except ImportError:  # pragma: no cover - always available on 3.8+
        pass
    return False


def call_with_retry(
    fn: Callable[..., Any],
    *args: Any,
    policy: Optional[RetryPolicy] = None,
    task_name: str = "task",
    sleep: Callable[[float], None] = time.sleep,
    breaker: Optional[Any] = None,
) -> Any:
    """Invoke ``fn(*args)`` under a retry policy.

    Non-retryable exceptions propagate unchanged on first occurrence.
    Retryable ones are re-attempted with backoff; once attempts are
    exhausted a :class:`~repro.errors.TaskFailedError` is raised carrying
    the task name, the attempt count and the last cause.

    ``breaker`` (a :class:`~repro.runtime.breaker.CircuitBreaker`) routes
    every attempt through the circuit: failures trip it, and once open the
    loop stops immediately with :class:`~repro.errors.CircuitOpenError`
    (never retried — the breaker already encodes "back off").
    """
    policy = policy or RetryPolicy()
    delays = policy.delays()
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            if breaker is not None:
                return breaker.call(fn, *args)
            return fn(*args)
        except CircuitOpenError:
            raise  # the breaker said stop; retrying would defeat it
        except BaseException as exc:
            if not is_retryable(exc):
                raise
            last = exc
            if attempt < policy.max_attempts:
                obs.inc("autosens_task_retries_total",
                        error=type(exc).__name__)
                sleep(next(delays))
    obs.inc("autosens_task_failures_total", error=type(last).__name__)
    raise TaskFailedError(task_name, policy.max_attempts, last) from last
