"""Task-level fault injection: workers that hang or eat memory.

The row-stream specs in :mod:`tests.faults.specs` corrupt *data*. The
wrappers here corrupt *execution*, reproducing two runtime failure modes
the executor and the supervision layer exist for:

- :class:`StalledTask` — the wrapped task sleeps instead of finishing on
  selected items: a live-but-stuck worker that crash recovery alone can
  never see (the process stays healthy, its chunk never returns). The
  retry policy's chunk timeout catches it.
- :class:`MemoryHog` — the wrapped task allocates a bounded ballast of
  memory (in chunks, up to ``ballast_mb``) while computing selected
  items, simulating a slice whose working set balloons. The result is
  unchanged — pressure, not corruption — so chaos tests can assert the
  surviving outputs stay bit-identical.

Both wrappers are picklable (they ship to process workers), select items
through a picklable ``selector`` predicate so the injection is a pure
function of the payload, and mirror the wrapped function's identity the
way the checkpoint shim does, keeping span keys stable.

:class:`StalledTask` only stalls inside a *worker* process by default
(the spawning pid is recorded at construction): the serial recovery path
in the parent then completes normally, which is exactly the recovery
semantics the chunk timeout relies on.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["StalledTask", "MemoryHog"]


def _mirror_identity(wrapper: Any, fn: Callable[[Any], Any]) -> None:
    wrapper.__qualname__ = getattr(fn, "__qualname__", type(fn).__name__)
    wrapper.__module__ = getattr(fn, "__module__", "")


class StalledTask:
    """Wrap a task so selected items hang instead of completing.

    ``selector(item)`` decides which items stall; ``stall_s`` bounds the
    sleep (a safety net — the chunk timeout should give up on the worker
    long before it elapses). With ``only_in_worker=True`` (the default) the stall
    happens only in a process other than the one that built the wrapper,
    so a serial re-execution of the same item in the parent succeeds.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        selector: Callable[[Any], bool],
        stall_s: float = 3600.0,
        only_in_worker: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.fn = fn
        self.selector = selector
        self.stall_s = float(stall_s)
        self.only_in_worker = only_in_worker
        self.spawn_pid = os.getpid()
        self._sleep = sleep
        _mirror_identity(self, fn)

    def __getstate__(self) -> Dict[str, Any]:
        # The sleep callable may be a test double; workers use time.sleep.
        return {
            "fn": self.fn, "selector": self.selector,
            "stall_s": self.stall_s, "only_in_worker": self.only_in_worker,
            "spawn_pid": self.spawn_pid,
            "__qualname__": self.__qualname__, "__module__": self.__module__,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.fn = state["fn"]
        self.selector = state["selector"]
        self.stall_s = state["stall_s"]
        self.only_in_worker = state["only_in_worker"]
        self.spawn_pid = state["spawn_pid"]
        self._sleep = time.sleep
        self.__qualname__ = state["__qualname__"]
        self.__module__ = state["__module__"]

    def _should_stall(self) -> bool:
        return not self.only_in_worker or os.getpid() != self.spawn_pid

    def __call__(self, item: Any) -> Any:
        if self.selector(item) and self._should_stall():
            # Sleep in short slices so a SIGKILL-less test double (or an
            # interpreter shutdown) is never stuck for the full budget.
            t_end = time.monotonic() + self.stall_s
            while time.monotonic() < t_end:
                self._sleep(min(0.2, self.stall_s))
        return self.fn(item)


class MemoryHog:
    """Wrap a task so selected items allocate ballast while computing.

    The ballast is built in ``chunk_mb`` pieces up to ``ballast_mb``,
    touched (so the pages are real), and dropped before the wrapped
    function returns — transient pressure only; the task's result is
    byte-identical to an uninjected run.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        selector: Callable[[Any], bool],
        ballast_mb: float = 64.0,
        chunk_mb: float = 16.0,
    ) -> None:
        self.fn = fn
        self.selector = selector
        self.ballast_mb = float(ballast_mb)
        self.chunk_mb = float(chunk_mb)
        _mirror_identity(self, fn)
        #: How many times this wrapper actually hogged (parent-side only).
        self.n_hogs = 0

    def __call__(self, item: Any) -> Any:
        if not self.selector(item):
            return self.fn(item)
        import numpy as np

        ballast = []
        allocated = 0.0
        try:
            while allocated < self.ballast_mb:
                size_mb = min(self.chunk_mb, self.ballast_mb - allocated)
                chunk = np.ones(int(size_mb * 1024 * 1024 // 8), dtype=np.float64)
                ballast.append(chunk)
                allocated += size_mb
            self.n_hogs += 1
            return self.fn(item)
        finally:
            ballast.clear()
