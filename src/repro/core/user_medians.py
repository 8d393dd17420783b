"""Streaming per-user median latency for quartile assignment at scale.

Section 3.4 groups users by their median experienced latency. With
billions of rows, per-user sample buffers are impossible; this module
tracks one P² quantile estimator (O(1) memory) per user and produces a
:class:`~repro.core.quartiles.QuartileAssignment`-compatible result.

    tracker = StreamingUserMedians()
    for path in sorted(Path("logs").glob("actions-*.jsonl.gz")):  # rotated
        tracker.consume(read_jsonl(path).successful())
    assignment = tracker.assignment(min_actions_per_user=5)
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import InsufficientDataError
from repro.core.quartiles import QuartileAssignment
from repro.stats.quantiles import P2Quantile
from repro.telemetry.log_store import LogStore


class StreamingUserMedians:
    """Accumulates per-user median-latency estimates across chunks.

    Users are keyed by their *string* id (``user_vocab`` entry), so chunks
    with independently built vocabularies combine correctly.
    """

    def __init__(self) -> None:
        self._estimators: Dict[str, P2Quantile] = {}

    @property
    def n_users(self) -> int:
        return len(self._estimators)

    def consume(self, logs: LogStore) -> None:
        """Feed one chunk of (successful) telemetry."""
        if logs.is_empty:
            return
        # Group rows by user code first: P2 updates are per-value Python
        # calls, so the grouping is the cheap part.
        order = np.argsort(logs.user_codes, kind="mergesort")
        codes = logs.user_codes[order]
        latencies = logs.latencies_ms[order]
        distinct, starts = np.unique(codes, return_index=True)
        boundaries = np.append(starts, codes.size)
        for i, code in enumerate(distinct):
            user_id = logs.user_vocab[int(code)]
            estimator = self._estimators.get(user_id)
            if estimator is None:
                estimator = P2Quantile(0.5)
                self._estimators[user_id] = estimator
            for value in latencies[boundaries[i]:boundaries[i + 1]]:
                estimator.add(float(value))

    def medians(self, min_actions_per_user: int = 1) -> Dict[str, float]:
        """Current median estimate per qualifying user id."""
        return {
            user_id: estimator.value()
            for user_id, estimator in self._estimators.items()
            if estimator.count >= min_actions_per_user
        }

    def assignment(
        self,
        reference_logs: LogStore,
        min_actions_per_user: int = 1,
    ) -> QuartileAssignment:
        """Quartile assignment keyed by ``reference_logs``' user codes.

        ``reference_logs`` provides the user vocabulary the returned codes
        refer to (typically the store you will slice next).
        """
        medians = self.medians(min_actions_per_user)
        codes, values = [], []
        for user_id, median in medians.items():
            if user_id in reference_logs.user_vocab:
                codes.append(reference_logs.user_vocab.index(user_id))
                values.append(median)
        if len(codes) < 4:
            raise InsufficientDataError(
                f"need at least 4 qualifying users for quartiles, have {len(codes)}"
            )
        code_arr = np.asarray(codes, dtype=np.int64)
        value_arr = np.asarray(values, dtype=float)
        cuts = np.quantile(value_arr, [0.25, 0.5, 0.75])
        quartile = np.searchsorted(cuts, value_arr, side="right")
        return QuartileAssignment(
            user_codes=code_arr, medians_ms=value_arr,
            quartile=quartile, cuts_ms=cuts,
        )
