"""User conditioning: quartiles of per-user median latency (Section 3.4).

Users are grouped into quartiles Q1..Q4 of their median experienced latency
(Q1 = fastest users). The paper then computes the NLP curve per quartile and
finds sensitivity decreasing from Q1 to Q4 — users accustomed to speed react
more strongly to slowness.

Only aggregate statistics ever leave this module; per-user medians are an
intermediate and the quartile slices are validated against the minimum
aggregate size (see :mod:`repro.telemetry.anonymize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import InsufficientDataError
from repro.telemetry.anonymize import require_min_aggregate
from repro.telemetry.log_store import LogStore

QUARTILE_NAMES = ("Q1", "Q2", "Q3", "Q4")


@dataclass
class QuartileAssignment:
    """Mapping of user codes to quartiles, with the cut points."""

    user_codes: np.ndarray      # distinct user codes
    medians_ms: np.ndarray      # per-user median latency
    quartile: np.ndarray        # 0..3 per user (0 = fastest)
    cuts_ms: np.ndarray         # the three interior cut points

    def users_in(self, quartile_index: int) -> np.ndarray:
        """User codes belonging to quartile ``quartile_index`` (0-based)."""
        return self.user_codes[self.quartile == quartile_index]


def assign_quartiles(logs: LogStore, min_actions_per_user: int = 1) -> QuartileAssignment:
    """Group users into equal-population quartiles of median latency.

    Users with fewer than ``min_actions_per_user`` actions are excluded —
    their medians are too noisy to condition on.
    """
    codes, medians = logs.per_user_median_latency()
    if min_actions_per_user > 1:
        # Both lists hold the distinct user codes in ascending order.
        _, counts = logs.per_user_action_count()
        keep = counts >= min_actions_per_user
        codes, medians = codes[keep], medians[keep]
    if codes.size < 4:
        raise InsufficientDataError(
            f"need at least 4 qualifying users for quartiles, have {codes.size}"
        )
    cuts = np.quantile(medians, [0.25, 0.5, 0.75])
    quartile = np.searchsorted(cuts, medians, side="right")
    return QuartileAssignment(
        user_codes=codes, medians_ms=medians, quartile=quartile, cuts_ms=cuts
    )


def quartile_slices(
    logs: LogStore,
    assignment: QuartileAssignment | None = None,
    min_users: int = 0,
) -> Dict[str, LogStore]:
    """Split logs into four stores keyed by quartile name.

    With ``min_users > 0`` each slice must pass the aggregate-size privacy
    guard.
    """
    if assignment is None:
        assignment = assign_quartiles(logs)
    # Quartile of every row's user; -1 for users without one.
    size = 1 + max(int(logs.user_codes.max(initial=-1)),
                   int(assignment.user_codes.max(initial=-1)))
    quartile_of_user = np.full(size, -1, dtype=np.int64)
    quartile_of_user[assignment.user_codes] = assignment.quartile
    row_quartile = quartile_of_user[logs.user_codes]
    out: Dict[str, LogStore] = {}
    for q, name in enumerate(QUARTILE_NAMES):
        sliced = logs.filter(logs.success & (row_quartile == q))
        if min_users > 0:
            require_min_aggregate(sliced, min_users=min_users, what=f"quartile {name}")
        out[name] = sliced
    return out
