"""Timing public calls in reference seconds.

The host's effective CPU speed drifts by tens of percent within seconds
(other tenants on the same cores, frequency changes), and every timed call
moves with it: a fixed CPU kernel timed back to back for two minutes had
15-second medians between 0.13 s and 0.21 s. So :class:`SpeedClock` times
fixed kernels, which call nothing in ``repro``, before the first call and
after each group of calls, and divides the calls' wall time by the host's
slowness relative to a reference speed, as the kernels measure it. A change
to the program moves the calls and not the kernels, so the scaled times
still show it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, List, Tuple

import numpy as np

#: Kernel wall times at the reference host speed. Reference seconds are
#: wall seconds at the speed where the kernels take this long.
INTERPRETER_REF_S = 0.035
MEMORY_REF_S = 0.045


def interpreter_kernel_s() -> float:
    """Wall time of a fixed interpreter-bound kernel: integer loop, JSON."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    rows = [json.dumps({"a": i, "b": i * 0.5}) for i in range(4000)]
    total += sum(len(json.loads(row)) for row in rows)
    return time.perf_counter() - start


def memory_kernel_s(stream: np.ndarray, gather: np.ndarray) -> float:
    """Wall time of a fixed NumPy kernel over arrays larger than the caches."""
    start = time.perf_counter()
    float(stream[stream > 0.5].sum())
    np.bincount((stream[gather] * 1000).astype(np.int64), minlength=1000)
    return time.perf_counter() - start


#: ``share`` of a call whose cost is per-row Python (JSONL reading and
#: writing, re-encoding on concat), and of one dominated by NumPy.
INTERPRETER = 0.0
MIXED = 0.5


class SpeedClock:
    """Times public calls in reference seconds and keeps running totals.

    Host contention slows interpreter-bound and memory-bound code
    differently. Over three minutes on a 2-vCPU VM shared with other tenants,
    ``read_jsonl`` calls
    tracked the interpreter kernel within about 5 % and drifted by 25 %
    against the memory kernel. ``xl`` curve calls tracked the equal mix of
    both within 1.5 % and either alone within about 5 %. So each call
    states ``share``, the weight of the memory kernel in its host-speed
    estimate: :data:`INTERPRETER` or :data:`MIXED`.

    Calls are timed in groups of one share: the kernels run after a call
    once the group's wall time reaches ``GROUP_S``, before a call of
    another share, and on :meth:`flush`. Every call in the group is scaled
    by the speed from the kernels before and after it. ``listeners`` are
    called with that factor when a group closes, so that they can rescale
    what they recorded during the group.
    """

    #: Wall seconds of calls between two kernel runs, at least.
    GROUP_S = 0.25

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stream = rng.random(3_000_000)
        self._gather = rng.integers(0, self._stream.size, 750_000)
        self.listeners: List[Callable[[float], None]] = []
        self.wall = 0.0
        self.seconds = 0.0
        self._pending = 0.0
        self._share = INTERPRETER
        self._last = self._kernels()

    def _kernels(self) -> Tuple[float, float]:
        """Interpreter and memory slowness relative to the reference speed."""
        return (interpreter_kernel_s() / INTERPRETER_REF_S,
                memory_kernel_s(self._stream, self._gather) / MEMORY_REF_S)

    def call(self, share: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as a call of the given ``share``."""
        if share != self._share:
            self.flush()
            self._share = share
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._pending += time.perf_counter() - start
            if self._pending >= self.GROUP_S:
                self.flush()

    def flush(self) -> None:
        """Close the current group of calls."""
        if self._pending == 0.0:
            return
        now = self._kernels()
        weights = (1 - self._share, self._share)
        slowness = sum(w * (a + b) / 2 for w, a, b in zip(weights, self._last, now))
        factor = 1 / slowness
        self._last = now
        self.wall += self._pending
        self.seconds += self._pending * factor
        self._pending = 0.0
        for listener in self.listeners:
            listener(factor)
