"""Uncertainty quantification for NLP curves.

The paper reports point curves; this reproduction adds a **day-level block
bootstrap**: whole days are resampled with replacement and the pipeline is
re-run on each replicate. Days are the natural block — the latency level
process decorrelates within hours, while within-day structure (diurnal
cycle, incidents) must be kept intact for the α machinery to see the same
kind of data.

The result is a pointwise percentile band, attached to a standard
:class:`PreferenceResult` so downstream rendering needs no changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import EmptyDataError, InsufficientDataError
from repro.core.pipeline import AutoSens, AutoSensConfig
from repro.core.result import PreferenceResult
from repro.parallel import resolve_executor
from repro.stats.rng import SeedLike, spawn_rng
from repro.telemetry.log_store import LogStore

SECONDS_PER_DAY = 86400.0


@dataclass
class BandedResult:
    """A point NLP curve plus a pointwise bootstrap band."""

    point: PreferenceResult
    low: np.ndarray
    high: np.ndarray
    confidence: float
    n_resamples: int

    def band_at(self, latency_ms: float) -> tuple:
        """(low, high) at a latency, interpolated like ``PreferenceResult.at``."""
        centers = self.point.latencies
        valid = ~(np.isnan(self.low) | np.isnan(self.high))
        if not valid.any():
            raise InsufficientDataError("the band has no valid bins")
        low = float(np.interp(latency_ms, centers[valid], self.low[valid],
                              left=np.nan, right=np.nan))
        high = float(np.interp(latency_ms, centers[valid], self.high[valid],
                               left=np.nan, right=np.nan))
        return low, high

    def halfwidth_at(self, latency_ms: float) -> float:
        low, high = self.band_at(latency_ms)
        return 0.5 * (high - low)

    def separated_from(self, other: "BandedResult", latency_ms: float) -> bool:
        """True when the two curves' bands do not overlap at ``latency_ms``."""
        a_low, a_high = self.band_at(latency_ms)
        b_low, b_high = other.band_at(latency_ms)
        return a_high < b_low or b_high < a_low


def _resample_days(logs: LogStore, rng: np.random.Generator) -> LogStore:
    """Draw days with replacement; keep each drawn day's rows at a shifted
    time so the replicate spans the same number of days."""
    start, end = logs.time_range()
    first_day = int(np.floor(start / SECONDS_PER_DAY))
    last_day = int(np.floor(end / SECONDS_PER_DAY))
    days = np.arange(first_day, last_day + 1)
    drawn = rng.choice(days, size=days.size, replace=True)
    pieces = []
    day_of_row = np.floor(logs.times / SECONDS_PER_DAY).astype(np.int64)
    for position, day in enumerate(drawn):
        mask = day_of_row == day
        if not np.any(mask):
            continue
        piece = logs.filter(mask)
        shift = (first_day + position - day) * SECONDS_PER_DAY
        piece = LogStore(
            times=piece.times + shift,
            latencies_ms=piece.latencies_ms,
            action_codes=piece.action_codes,
            user_codes=piece.user_codes,
            class_codes=piece.class_codes,
            success=piece.success,
            tz_offsets=piece.tz_offsets,
            action_vocab=piece.action_vocab,
            user_vocab=piece.user_vocab,
            class_vocab=piece.class_vocab,
        )
        pieces.append(piece)
    if not pieces:
        raise EmptyDataError("day resampling produced an empty replicate")
    out = pieces[0]
    for piece in pieces[1:]:
        out = out.concat(piece)
    return out.sorted_by_time()


def _replicate_task(payload: tuple) -> Optional[np.ndarray]:
    """Top-level (picklable) bootstrap task: one day-resampled NLP curve.

    Each replicate carries its own integer seed, pre-spawned by the caller,
    so the result is a pure function of the payload — independent of which
    worker runs it and in what order.
    """
    logs, cfg, seed, slice_kwargs = payload
    replicate_rng = np.random.default_rng(seed)
    replicate_logs = _resample_days(logs, replicate_rng)
    try:
        curve = AutoSens(cfg).preference_curve(replicate_logs, **slice_kwargs)
    except (EmptyDataError, InsufficientDataError):
        return None
    return curve.nlp


def nlp_confidence_band(
    logs: LogStore,
    config: Optional[AutoSensConfig] = None,
    confidence: float = 0.9,
    n_resamples: int = 20,
    rng: SeedLike = None,
    executor=None,
    **slice_kwargs,
) -> BandedResult:
    """Point curve + day-block-bootstrap percentile band.

    ``slice_kwargs`` are forwarded to :meth:`AutoSens.preference_curve`
    (``action=``, ``user_class=``, ...). 20 resamples give a usable 90 %
    band; increase for smoother band edges. ``executor`` fans the
    replicates out (see :mod:`repro.parallel`); the band is bit-identical
    for every backend because each replicate owns a pre-spawned seed.
    """
    cfg = config or AutoSensConfig()
    generator = spawn_rng(rng)
    point = AutoSens(cfg).preference_curve(logs, **slice_kwargs)

    seeds = generator.integers(0, 2**63 - 1, size=n_resamples)
    payloads = [(logs, cfg, int(seed), slice_kwargs) for seed in seeds]
    rows = resolve_executor(executor).map_ordered(_replicate_task, payloads)
    replicates = np.full((n_resamples, point.nlp.size), np.nan)
    for i, row in enumerate(rows):
        if row is not None:
            replicates[i] = row
    if np.all(np.isnan(replicates)):
        raise InsufficientDataError("every bootstrap replicate failed")

    alpha = 1.0 - confidence
    counts = (~np.isnan(replicates)).sum(axis=0)
    low = np.full(point.nlp.size, np.nan)
    high = np.full(point.nlp.size, np.nan)
    enough = counts >= max(4, int(0.5 * n_resamples))
    if enough.any():
        low[enough] = np.nanquantile(replicates[:, enough], alpha / 2.0, axis=0)
        high[enough] = np.nanquantile(replicates[:, enough], 1.0 - alpha / 2.0, axis=0)
    return BandedResult(
        point=point, low=low, high=high,
        confidence=confidence, n_resamples=n_resamples,
    )
