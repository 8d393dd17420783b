"""Memory governor: admission control and disk spill for sweeps.

A production sweep over millions of users can exhaust memory in two ways:
one slice's ``slotted_counts`` working set is simply too large, or many
completed slices accumulate while the sweep fans out. The
:class:`MemoryGovernor` handles both without distorting any result:

- **Estimation** — :func:`estimate_nbytes` walks an object for NumPy array
  payloads; :func:`estimate_counts_bytes` predicts a slice's working set
  *before* computing it from the slice's action count and the config's
  bin/slot geometry.
- **Admission control** — :meth:`MemoryGovernor.admit` refuses (with
  :class:`~repro.errors.MemoryBudgetError`) a working set that cannot fit
  the hard budget at all, and :meth:`max_concurrent` bounds sweep fan-out
  so concurrently-live working sets stay inside the soft limit.
- **Spill** — :meth:`hold` accounts each completed slice result; past the
  soft limit the least-recently-held values are written to disk through
  the content-addressed :class:`~repro.parallel.checkpoint.CheckpointJournal`
  format and dropped from memory. :meth:`fetch` transparently reloads a
  spilled value — pickled NumPy arrays round-trip bit-identically, so a
  spilled slice is indistinguishable from a held one.

Every spill is counted (``autosens_memory_spills_total``), recorded as a
``memory_spill`` degradation for the run manifest, and the held working
set is exported as the ``autosens_memory_held_bytes`` gauge.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError, MemoryBudgetError

__all__ = [
    "MemoryGovernor",
    "estimate_nbytes",
    "estimate_counts_bytes",
]

_MB = 1024 * 1024


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Estimate the heap footprint of ``obj``, counting NumPy payloads.

    Recurses through dataclasses, dicts, lists/tuples and object
    ``__dict__``s to a bounded depth; scalar containers fall back to
    ``sys.getsizeof``. An estimate, not an audit — the governor needs
    relative magnitudes, not byte-perfect accounting.
    """
    if _depth > 6:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, str)):
        return sys.getsizeof(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            estimate_nbytes(getattr(obj, f.name), _depth + 1)
            for f in fields(obj)
        )
    if isinstance(obj, dict):
        return sum(
            estimate_nbytes(v, _depth + 1) for v in obj.values()
        ) + sys.getsizeof(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_nbytes(v, _depth + 1) for v in obj) + sys.getsizeof(obj)
    inner = getattr(obj, "__dict__", None)
    if isinstance(inner, dict) and inner:
        return estimate_nbytes(inner, _depth + 1)
    try:
        return sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects
        return 64


def estimate_counts_bytes(
    n_actions: int,
    n_bins: int,
    n_slots: int = 24,
) -> int:
    """Predict one slice's ``slotted_counts`` working set in bytes.

    Two float64 ``(n_slots, n_bins)`` tensors (biased counts and time
    fractions) and the per-action column arrays consumed while counting.
    """
    tensors = 2 * n_slots * n_bins * 8
    per_action = 5 * n_actions * 8
    return tensors + per_action


class MemoryGovernor:
    """Budgeted accounting of sweep working sets with LRU disk spill.

    ``soft_limit_bytes`` is where spilling starts; ``hard_limit_bytes``
    (default: the soft limit) is where admission fails — a single working
    set that exceeds it cannot run at all, spilled or not. ``spill_dir``
    enables the disk tier; without it the governor still does admission
    control and accounting but keeps everything in memory.
    """

    def __init__(
        self,
        soft_limit_bytes: int,
        hard_limit_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if soft_limit_bytes <= 0:
            raise ConfigError(
                f"soft_limit_bytes must be positive, got {soft_limit_bytes}"
            )
        self.soft_limit_bytes = int(soft_limit_bytes)
        self.hard_limit_bytes = int(
            hard_limit_bytes if hard_limit_bytes is not None
            else soft_limit_bytes
        )
        if self.hard_limit_bytes < self.soft_limit_bytes:
            raise ConfigError(
                "hard_limit_bytes must be >= soft_limit_bytes "
                f"({self.hard_limit_bytes} < {self.soft_limit_bytes})"
            )
        self._journal = None
        if spill_dir is not None:
            # Imported here: repro.parallel's executor imports this package.
            from repro.parallel.checkpoint import CheckpointJournal

            self._journal = CheckpointJournal(spill_dir, namespace="memory-spill")
        self._held: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._spilled: Dict[Hashable, str] = {}
        self.n_spills = 0
        self.n_refused = 0

    @classmethod
    def of_mb(cls, soft_limit_mb: float,
              spill_dir: Optional[Union[str, Path]] = None) -> "MemoryGovernor":
        """A governor from a megabyte budget (the CLI's unit)."""
        return cls(int(soft_limit_mb * _MB), spill_dir=spill_dir)

    # -- admission -----------------------------------------------------------

    def admit(self, estimated_bytes: int, what: str = "working set") -> None:
        """Refuse a working set that cannot fit the hard budget at all."""
        if estimated_bytes > self.hard_limit_bytes:
            self.n_refused += 1
            obs.inc("autosens_memory_refusals_total")
            raise MemoryBudgetError(
                f"{what} needs ~{estimated_bytes / _MB:.1f} MiB; the memory "
                f"budget is {self.hard_limit_bytes / _MB:.1f} MiB",
                requested_bytes=estimated_bytes,
                budget_bytes=self.hard_limit_bytes,
            )

    def max_concurrent(self, per_task_bytes: int, n_tasks: int) -> int:
        """How many tasks of this size may be live at once (at least 1)."""
        if per_task_bytes <= 0:
            return max(1, n_tasks)
        return max(1, min(n_tasks, self.soft_limit_bytes // per_task_bytes))

    # -- the spill tier ------------------------------------------------------

    def held_bytes(self) -> int:
        """Accounted bytes currently held in memory."""
        return sum(size for _, size in self._held.values())

    def hold(self, key: Hashable, value: Any,
             nbytes: Optional[int] = None) -> None:
        """Account ``value`` under ``key``; spill LRU past the soft limit."""
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        self._held[key] = (value, size)
        self._held.move_to_end(key)
        while (
            self.held_bytes() > self.soft_limit_bytes
            and self._journal is not None
            and len(self._held) > 1
        ):
            old_key, (old_value, old_size) = self._held.popitem(last=False)
            spill_key = self._journal.key_for("spill", repr(old_key))
            self._journal.put(spill_key, old_value)
            self._spilled[old_key] = spill_key
            self.n_spills += 1
            obs.inc("autosens_memory_spills_total")
            obs.record_degradation(
                "memory_spill", key=str(old_key), bytes=old_size,
                detail=f"spilled ~{old_size / _MB:.2f} MiB slice to disk "
                       f"(held {self.held_bytes() / _MB:.2f} MiB, soft limit "
                       f"{self.soft_limit_bytes / _MB:.2f} MiB)",
            )
        obs.set_gauge("autosens_memory_held_bytes", float(self.held_bytes()))

    def fetch(self, key: Hashable) -> Tuple[bool, Any]:
        """(hit, value) from memory or the spill tier; spills reload."""
        if key in self._held:
            value, _ = self._held[key]
            self._held.move_to_end(key)
            return True, value
        spill_key = self._spilled.get(key)
        if spill_key is not None and self._journal is not None:
            hit, value = self._journal.fetch(spill_key)
            if hit:
                return True, value
        return False, None

    def release(self, key: Hashable) -> None:
        """Forget a key from both tiers."""
        self._held.pop(key, None)
        self._spilled.pop(key, None)

    def stats(self) -> Dict[str, int]:
        """Accounting counters for tests and the supervisor summary."""
        return {
            "held_entries": len(self._held),
            "held_bytes": self.held_bytes(),
            "spilled_entries": len(self._spilled),
            "n_spills": self.n_spills,
            "n_refused": self.n_refused,
            "soft_limit_bytes": self.soft_limit_bytes,
            "hard_limit_bytes": self.hard_limit_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryGovernor(held={self.held_bytes()}B/"
                f"{self.soft_limit_bytes}B, spills={self.n_spills})")
