"""Streaming / chunked AutoSens for warehouse-scale telemetry.

The paper runs on *several billion* actions — far beyond what fits in one
in-memory :class:`LogStore`. The sufficient statistics of the pipeline,
however, are tiny: per-(slot, latency-bin) biased counts and exact
unbiased time fractions (:class:`~repro.core.alpha.SlottedCounts`). This
module makes those statistics **mergeable**, so telemetry can be processed
chunk by chunk (or shard by shard on different machines) and combined:

    accumulator = StreamingAutoSens(config)
    for path in sorted(Path("logs").glob("actions-*.jsonl.gz")):  # rotated
        accumulator.consume(read_jsonl(path).where(action="SelectMail"))
    curve = accumulator.preference_curve()

Caveat: each chunk's Voronoi cells only see that chunk's samples, so
chunks should be split on *time* boundaries (the natural layout of server
logs) — each chunk then contributes its own span's availability, and
merging is exact up to edge effects at chunk boundaries: the cells of a
chunk's first and last samples stop at the chunk's edge samples instead
of reaching the midpoint to the neighbouring chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import ConfigError, EmptyDataError, InsufficientDataError
from repro.core.aggregate import curve_from_counts
from repro.core.alpha import SlottedCounts, slotted_counts
from repro.core.pipeline import AutoSensConfig
from repro.core.result import PreferenceResult
from repro.telemetry.log_store import LogStore


def merge_slotted_counts(parts: List[SlottedCounts]) -> SlottedCounts:
    """Merge chunk-level sufficient statistics into one table.

    Biased counts add; unbiased time fractions combine weighted by each
    chunk's observed seconds in the slot.
    """
    if not parts:
        raise EmptyDataError("nothing to merge")
    first = parts[0]
    for other in parts[1:]:
        if other.scheme != first.scheme:
            raise ConfigError("cannot merge counts with different slot schemes")
        if other.bins != first.bins:
            raise ConfigError("cannot merge counts with different bin grids")

    all_slots = np.unique(np.concatenate([p.slot_ids for p in parts]))
    n_bins = first.bins.count
    c = np.zeros((all_slots.size, n_bins), dtype=float)
    u = np.zeros((all_slots.size, n_bins), dtype=float)
    seconds = np.zeros(all_slots.size, dtype=float)
    index = {int(s): i for i, s in enumerate(all_slots)}
    for part in parts:
        # f rows are per-chunk fractions of the slot's time *within that
        # chunk*; re-weight by the wall-clock seconds the chunk contributes
        # to the slot so the merge estimates the overall time-at-latency.
        for row, slot in enumerate(part.slot_ids):
            target = index[int(slot)]
            c[target] += part.biased_counts[row]
            if part.slot_seconds is not None:
                weight = float(part.slot_seconds[row])
            else:
                weight = max(part.biased_counts[row].sum(), 1.0)
            u[target] += part.time_fractions[row] * weight
            seconds[target] += weight
    with np.errstate(invalid="ignore", divide="ignore"):
        totals = u.sum(axis=1, keepdims=True)
        f = np.where(totals > 0, u / totals, 0.0)
    return SlottedCounts(
        scheme=first.scheme,
        slot_ids=all_slots,
        biased_counts=c,
        time_fractions=f,
        bins=first.bins,
        slot_seconds=seconds,
    )


@dataclass
class _ChunkStats:
    counts: SlottedCounts
    n_rows: int


class StreamingAutoSens:
    """Chunk-by-chunk accumulator with the same output as :class:`AutoSens`.

    ``consume`` ingests one (already sliced) chunk; ``preference_curve``
    merges everything seen so far and runs the standard downstream path.
    """

    def __init__(self, config: Optional[AutoSensConfig] = None) -> None:
        self.config = config or AutoSensConfig()
        self._chunks: List[_ChunkStats] = []
        self._slice_description = ""

    @property
    def n_rows(self) -> int:
        """Total rows consumed so far."""
        return sum(chunk.n_rows for chunk in self._chunks)

    def consume(self, logs: LogStore, description: str = "") -> None:
        """Ingest one chunk of telemetry (rows for one time span)."""
        if logs.is_empty:
            return
        cfg = self.config
        counts = slotted_counts(logs, cfg.bins(), scheme=cfg.slot_scheme)
        self._chunks.append(_ChunkStats(counts=counts, n_rows=len(logs)))
        if description:
            self._slice_description = description

    def merged_counts(self) -> SlottedCounts:
        """The combined sufficient statistics."""
        if not self._chunks:
            raise EmptyDataError("no chunks consumed")
        return merge_slotted_counts([chunk.counts for chunk in self._chunks])

    def preference_curve(self) -> PreferenceResult:
        """Compute the NLP curve from everything consumed so far."""
        cfg = self.config
        if self.n_rows < cfg.min_actions:
            raise InsufficientDataError(
                f"consumed only {self.n_rows} rows; need {cfg.min_actions}"
            )
        result = curve_from_counts(
            self.merged_counts(), cfg,
            slice_description=self._slice_description,
        )
        result.metadata["chunks"] = len(self._chunks)
        return result


def iter_chunks_by_day(
    logs: LogStore,
    days_per_chunk: float = 1.0,
) -> Iterator[LogStore]:
    """Split a store into consecutive time chunks (helper for tests/demos)."""
    if logs.is_empty:
        return
    if days_per_chunk <= 0:
        raise ConfigError(f"days_per_chunk must be positive, got {days_per_chunk}")
    start, end = logs.time_range()
    width = days_per_chunk * 86400.0
    t = start
    while t <= end:
        chunk = logs.where(time_range=(t, t + width), success_only=False)
        if len(chunk):
            yield chunk
        t += width
