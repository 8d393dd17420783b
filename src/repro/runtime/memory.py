"""Memory governor: admission control and wave bounding for sweeps.

A production sweep over millions of users can exhaust memory in two ways:
one slice's ``slotted_counts`` working set is simply too large, or many
slices' working sets are live at once while the sweep fans out. The
:class:`MemoryGovernor` handles both without distorting any result:

- **Estimation** — :func:`estimate_counts_bytes` predicts a slice's
  working set *before* computing it from the slice's action count and the
  config's bin/slot geometry.
- **Admission control** — :meth:`MemoryGovernor.admit` refuses (with
  :class:`~repro.errors.MemoryBudgetError`) a working set that cannot fit
  the hard budget at all, and :meth:`max_concurrent` bounds sweep fan-out
  so concurrently-live working sets stay inside the soft limit: the sweep
  runs in waves of that many tasks.

Every refusal is counted (``autosens_memory_refusals_total``).
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.obs as obs
from repro.errors import ConfigError, MemoryBudgetError

__all__ = [
    "MemoryGovernor",
    "estimate_counts_bytes",
]

_MB = 1024 * 1024


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
    """Budgeted admission and fan-out of sweep working sets.

    ``soft_limit_bytes`` bounds how many working sets a sweep keeps live at
    once; ``hard_limit_bytes`` (default: the soft limit) is where admission
    fails — a single working set that exceeds it cannot run at all.
    """

    def __init__(
        self,
        soft_limit_bytes: int,
        hard_limit_bytes: Optional[int] = None,
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
        self.n_refused = 0

    @classmethod
    def of_mb(cls, soft_limit_mb: float) -> "MemoryGovernor":
        """A governor from a megabyte budget (the CLI's unit)."""
        return cls(int(soft_limit_mb * _MB))

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

    def stats(self) -> Dict[str, int]:
        """Accounting counters for tests and the supervisor summary."""
        return {
            "n_refused": self.n_refused,
            "soft_limit_bytes": self.soft_limit_bytes,
            "hard_limit_bytes": self.hard_limit_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryGovernor(soft={self.soft_limit_bytes}B, "
                f"hard={self.hard_limit_bytes}B)")
