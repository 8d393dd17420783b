"""Heartbeat-based hung-worker detection for the process backend.

The process backend's crash/timeout recovery handles workers that *die*
(the pool breaks and the lost chunks are re-executed in-process). It
never fires for a worker that is alive but stuck — wedged on a lock,
spinning in a pathological input, blocked on a dead filesystem. This
module closes that gap. A watchdog is installed only through
``Supervisor(watchdog=...)``: its scope runs the thread, and the process
backend reads it from :func:`~repro.runtime.supervisor.active_supervisor`.

- Workers run their tasks through a :class:`TaskHeartbeat` shim that
  records a liveness beat (pid, wall time, task key) in a spool directory
  before and after every item — atomic tmp+rename writes, one small file
  per worker pid, no cross-process locks.
- A :class:`Watchdog` thread in the parent scans the spool: a worker whose
  latest beat is older than ``stall_timeout_s`` is presumed hung and is
  killed (``SIGKILL``). Killing a pool worker breaks the
  ``ProcessPoolExecutor``, which lands the run on the existing
  crash-recovery path — the stalled chunk is *requeued* onto the serial
  fallback, where pure per-task seeding makes the recovered results
  bit-identical to an undisturbed run.

Every kill is counted (``autosens_watchdog_kills_total``) and recorded as
a ``watchdog_kill`` degradation for the run manifest. The clock, kill
function and poll cadence are injectable so tests can drive stall
detection without real signals or multi-second sleeps.

``stall_timeout_s`` must comfortably exceed the longest *legitimate* gap
between beats — i.e. the slowest single task — since heartbeats are
emitted at task boundaries, not from inside NumPy kernels.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import repro.obs as obs
from repro.errors import ConfigError

__all__ = ["HeartbeatWriter", "TaskHeartbeat", "Watchdog"]

_HB_PREFIX = "hb-"


class HeartbeatWriter:
    """Emit liveness beats for the current process into a spool directory.

    One file per pid, rewritten atomically on every beat so the supervisor
    never reads a torn record. Cheap enough for task-boundary cadence: one
    small JSON write per beat.
    """

    def __init__(self, spool_dir: Union[str, Path],
                 clock: Callable[[], float] = time.time) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock

    def path_for(self, pid: Optional[int] = None) -> Path:
        pid = os.getpid() if pid is None else pid
        return self.spool_dir / f"{_HB_PREFIX}{pid}.json"

    def beat(self, task: str = "") -> None:
        """Record that this process is alive and what it is working on."""
        pid = os.getpid()
        path = self.path_for(pid)
        tmp = path.with_suffix(f".tmp.{pid}")
        payload = {"pid": pid, "t": self._clock(), "task": task}
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)

    def clear(self) -> None:
        """Remove this process's heartbeat file (normal completion)."""
        try:
            self.path_for().unlink()
        except OSError:
            pass


class TaskHeartbeat:
    """Picklable task shim: beat, run the item, beat again.

    Mirrors the wrapped function's identity (like the checkpoint journal's
    shim) so span keys derived from the qualname are identical with and
    without the watchdog attached.
    """

    def __init__(self, fn: Callable[[Any], Any],
                 spool_dir: Union[str, Path]) -> None:
        self.fn = fn
        self.spool_dir = str(spool_dir)
        self.__qualname__ = getattr(fn, "__qualname__", type(fn).__name__)
        self.__module__ = getattr(fn, "__module__", "")
        self._writer: Optional[HeartbeatWriter] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The writer holds an open clock closure; rebuild it in the worker.
        return {"fn": self.fn, "spool_dir": self.spool_dir,
                "__qualname__": self.__qualname__,
                "__module__": self.__module__}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.fn = state["fn"]
        self.spool_dir = state["spool_dir"]
        self.__qualname__ = state["__qualname__"]
        self.__module__ = state["__module__"]
        self._writer = None

    def __call__(self, item: Any) -> Any:
        if self._writer is None:
            self._writer = HeartbeatWriter(self.spool_dir)
        self._writer.beat(task=self.__qualname__)
        result = self.fn(item)
        self._writer.beat(task="")
        return result


def _default_kill(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


class Watchdog:
    """Supervisor thread that kills workers whose heartbeat has stalled.

    ``scan_once`` is the testable core; :meth:`start`/:meth:`stop` run it
    on a background thread every ``poll_interval_s``. The watchdog never
    kills its own process, and a heartbeat file whose pid is already gone
    is cleaned up rather than "killed" again.
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        stall_timeout_s: float = 30.0,
        poll_interval_s: Optional[float] = None,
        kill: Callable[[int], None] = _default_kill,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if stall_timeout_s <= 0:
            raise ConfigError(
                f"stall_timeout_s must be positive, got {stall_timeout_s}"
            )
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.stall_timeout_s = stall_timeout_s
        self.poll_interval_s = (
            poll_interval_s if poll_interval_s is not None
            else max(0.05, stall_timeout_s / 4.0)
        )
        self._kill = kill
        self._clock = clock
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Pids killed by this watchdog, in kill order.
        self.kills: List[int] = []

    def writer(self) -> HeartbeatWriter:
        """A heartbeat writer for this watchdog's spool directory."""
        return HeartbeatWriter(self.spool_dir, clock=self._clock)

    def wrap(self, fn: Callable[[Any], Any]) -> TaskHeartbeat:
        """Wrap a task function so every execution beats into the spool."""
        return TaskHeartbeat(fn, self.spool_dir)

    def _read_beat(self, path: Path) -> Optional[Dict[str, Any]]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or "pid" not in payload:
            return None
        return payload

    def scan_once(self) -> List[int]:
        """One supervision pass; returns the pids killed this pass."""
        now = self._clock()
        killed: List[int] = []
        own_pid = os.getpid()
        for path in sorted(self.spool_dir.glob(f"{_HB_PREFIX}*.json")):
            beat = self._read_beat(path)
            if beat is None:
                continue
            pid = int(beat["pid"])
            age = now - float(beat.get("t", 0.0))
            if age < self.stall_timeout_s or pid == own_pid:
                continue
            if not _pid_alive(pid):
                # Crash recovery's territory: the worker died on its own.
                path.unlink(missing_ok=True)
                continue
            try:
                self._kill(pid)
            except OSError:  # pragma: no cover - raced with normal exit
                continue
            path.unlink(missing_ok=True)
            self.kills.append(pid)
            killed.append(pid)
            obs.inc("autosens_watchdog_kills_total")
            obs.record_degradation(
                "watchdog_kill", pid=pid,
                task=str(beat.get("task", "")),
                stalled_s=round(age, 3),
                detail=f"killed hung worker pid={pid} "
                       f"(heartbeat stalled {age:.3g}s, "
                       f"limit {self.stall_timeout_s:.3g}s)",
            )
        return killed

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self.scan_once()

    def start(self) -> None:
        """Start the supervision thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="autosens-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the supervision thread and wait for it to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "Watchdog":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Watchdog({str(self.spool_dir)!r}, "
                f"stall_timeout_s={self.stall_timeout_s}, "
                f"kills={len(self.kills)})")
