"""Sessionization of per-user action streams.

Not required by the core AutoSens pipeline, but used by extension analyses:
the "stay-or-leave" framing in the paper's Section 2.1 ("when the service is
fast and responsive, users would likely stay on and do more actions") is
naturally examined via sessions — maximal runs of one user's actions with no
gap exceeding a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.log_store import LogStore

DEFAULT_SESSION_GAP_SECONDS = 30 * 60.0


@dataclass(frozen=True)
class Session:
    """A maximal run of one user's actions separated by gaps <= the timeout."""

    user_code: int
    start: float
    end: float
    n_actions: int
    mean_latency_ms: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def sessionize(
    logs: LogStore,
    gap_seconds: float = DEFAULT_SESSION_GAP_SECONDS,
) -> List[Session]:
    """Split logs into per-user sessions.

    Rows are grouped by user, sorted by time, and cut wherever the
    inter-action gap exceeds ``gap_seconds``.
    """
    if gap_seconds <= 0:
        raise ConfigError(f"gap_seconds must be positive, got {gap_seconds}")
    if logs.is_empty:
        return []
    order = np.lexsort((logs.times, logs.user_codes))
    users = logs.user_codes[order]
    times = logs.times[order]
    lats = logs.latencies_ms[order]

    sessions: List[Session] = []
    start_idx = 0
    n = users.size
    for i in range(1, n + 1):
        boundary = (
            i == n
            or users[i] != users[start_idx]
            or times[i] - times[i - 1] > gap_seconds
        )
        if boundary:
            seg_lats = lats[start_idx:i]
            sessions.append(
                Session(
                    user_code=int(users[start_idx]),
                    start=float(times[start_idx]),
                    end=float(times[i - 1]),
                    n_actions=int(i - start_idx),
                    mean_latency_ms=float(seg_lats.mean()),
                )
            )
            start_idx = i
    return sessions
