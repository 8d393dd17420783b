"""Disk-backed checkpoint journal for resumable fan-outs.

Completed task results are journaled as individual pickle files keyed by a
content hash of ``(namespace, task function, task payload)``. A re-run of
the same sweep finds its finished tasks in the journal and skips straight
to the missing ones — and because every task derives its randomness purely
from its payload (see :mod:`repro.parallel.seeding`), a resumed run is
bit-identical to an uninterrupted one.

Writes are atomic (tmp file + rename) so a crash mid-write never leaves a
truncated checkpoint behind; an unreadable checkpoint is treated as absent
and recomputed.

:class:`JournaledExecutor` puts a journal in front of any executor: it
serves journaled tasks and runs only the rest, each journaled the moment
it finishes. It adds no recovery of its own — a lost chunk is re-run by
the backend's one recovery loop, and the shim journals it there too.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.parallel.executor import Executor, _Positioned, _task_name

__all__ = ["CheckpointJournal", "JournaledExecutor"]

#: Fixed pickle protocol so keys are stable across interpreter runs.
_PROTOCOL = 4

_MISSING = object()


class CheckpointJournal:
    """A directory of content-addressed task results."""

    def __init__(self, directory: Union[str, Path], namespace: str = "") -> None:
        self.directory = Path(directory)
        self.namespace = namespace
        self.directory.mkdir(parents=True, exist_ok=True)

    def key_for(self, *parts: Any) -> str:
        """Stable content hash of the task identity."""
        payload = pickle.dumps((self.namespace,) + parts, protocol=_PROTOCOL)
        return hashlib.sha256(payload).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def get(self, key: str, default: Any = None) -> Any:
        """The journaled result, or ``default`` if absent/unreadable."""
        path = self._path(key)
        if not path.exists():
            return default
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # A torn or stale checkpoint is as good as no checkpoint.
            return default

    def fetch(self, key: str) -> Tuple[bool, Any]:
        """(hit, value) — distinguishes a journaled ``None`` from a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            return False, None
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Atomically journal one result."""
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=_PROTOCOL)
        os.replace(tmp, path)

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every checkpoint; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CheckpointJournal({str(self.directory)!r}, "
                f"namespace={self.namespace!r}, entries={len(self)})")


def _task_key(journal: CheckpointJournal, fn: Callable[[Any], Any], item: Any) -> str:
    """Content hash of one task's identity (function + payload)."""
    name = getattr(fn, "__qualname__", repr(fn))
    module = getattr(fn, "__module__", "")
    return journal.key_for(f"{module}.{name}", item)


class _Journaled:
    """Picklable shim: run the task, journal its result, return it.

    Keys are derived from the *wrapped* function, so a resumed run (which
    wraps the same function again) finds the same entries. Journaling
    happens inside the task itself — in a process worker that means the
    checkpoint lands on disk the moment the task finishes, so a run killed
    mid-sweep still leaves its completed tasks behind.
    """

    def __init__(self, fn: Callable[[Any], Any], journal: CheckpointJournal) -> None:
        self.fn = fn
        self.journal = journal
        # Mirror the wrapped function's identity so span keys (derived from
        # the qualname) are identical whether a task runs wrapped on a cold
        # run or is re-keyed on a resumed one.
        self.__qualname__ = getattr(fn, "__qualname__", type(fn).__name__)
        self.__module__ = getattr(fn, "__module__", "")

    def __call__(self, item: Any) -> Any:
        if isinstance(item, _Positioned):  # an inner executor outside _run_tasks
            item = item.item
        value = self.fn(item)
        self.journal.put(_task_key(self.journal, self.fn, item), value)
        return value


class JournaledExecutor:
    """Serve journaled results; run and journal the rest on ``inner``.

    A journaled task counts ``autosens_checkpoint_total{outcome="hit"}``
    and, when tracing is on, opens a zero-work ``task`` span stamped
    ``cached=True`` under the key the cold run used, so a resumed run's
    trace shows it under the *same* span id. Every other task counts a
    ``miss`` and runs on ``inner`` as a :class:`_Positioned` item, so its
    span is keyed by its index in the whole sweep, as on the cold run.
    """

    def __init__(self, inner: Executor, journal: CheckpointJournal) -> None:
        self.inner = inner
        self.journal = journal

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        items = list(items)
        traced = obs.enabled()
        name = _task_name(fn)
        results: List[Any] = []
        pending: List[int] = []
        for i, item in enumerate(items):
            hit, value = self.journal.fetch(_task_key(self.journal, fn, item))
            results.append(value)
            if not hit:
                pending.append(i)
                obs.inc("autosens_checkpoint_total", outcome="miss")
                continue
            obs.inc("autosens_checkpoint_total", outcome="hit")
            if traced:
                with obs.span("task", key=f"{name}[{i}]", task=name,
                              index=i, cached=True):
                    pass
        if pending:
            fresh = self.inner.map_ordered(
                _Journaled(fn, self.journal),
                [_Positioned(i, items[i]) for i in pending], chunk_size=chunk_size)
            for i, value in zip(pending, fresh):
                results[i] = value
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JournaledExecutor(inner={self.inner!r}, journal={self.journal!r})"
