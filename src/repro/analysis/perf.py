"""Perf-regression suite: stage timings for generator → pipeline → sweep.

This is the measurement half of the performance work: every stage that the
tensor refactor, the slice cache, or the executor subsystem touched is timed
against a faithful copy of the pre-refactor reference implementation (the
per-slot / per-sample Python loops), and the results land in
``BENCH_pipeline.json`` so future PRs inherit a trajectory instead of a
guess.

The legacy copies below are deliberately verbatim ports of the old
``repro.core.alpha`` loops, so every timed pair is also checked for
numerical agreement (``PerfReport.stage('slotted_counts').max_abs_diff``).
Deterministic stages (biased counts, period slots, corrected contraction)
agree bit-for-bit; the shipped time fractions are the exact limit of the
unbiased draw the legacy loop still samples, so they agree only up to that
draw's sampling noise — the reported ``max_abs_diff`` for those stages is
the statistical equivalence bound, not a bitwise one.

Run from the CLI::

    PYTHONPATH=src python tools/bench_report.py --scale full

or programmatically::

    from repro.analysis.perf import run_perf_suite
    report = run_perf_suite(scale="smoke", seed=0)
    print(report.render())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

import repro.obs as obs
from repro.analysis.base import FULL, Scale
from repro.core.alpha import (
    SlottedCounts,
    alpha_from_counts,
    corrected_histograms_from_counts,
    slot_of_times,
    slotted_counts,
)
from repro.core.pipeline import AutoSens, AutoSensConfig
from repro.core.preference import average_results
from repro.core.result import PreferenceResult
from repro.core.unbiased import UNBIASED_MASS_PER_ACTION
from repro.errors import EmptyDataError
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.stats.rng import SeedLike, spawn_rng
from repro.telemetry import timeutil
from repro.telemetry.log_store import LogStore
from repro.types import ALL_DAY_PERIODS, DayPeriod
from repro.workload.scenarios import owa_scenario

#: Tiny scale for CI smoke runs: a few thousand actions, a couple of
#: seconds end to end. Regression ratios at this scale are noisy but a
#: genuine O(n_slots·N) → O(N) regression still shows up as >2×.
SMOKE = Scale(duration_days=2.0, n_users=80, candidates_per_user_day=40.0)

#: Millions-of-actions scale (~5M candidates, >2M accepted actions): the
#: headroom proof for the exact U estimator. Run with ``legacy=False``
#: (``bench_report.py --no-legacy``) — the per-slot legacy loops take
#: minutes at this size and prove nothing new.
XL = Scale(duration_days=14.0, n_users=1800, candidates_per_user_day=200.0)

#: Named scales accepted by :func:`run_perf_suite` and the CLI.
PERF_SCALES: Dict[str, Scale] = {"full": FULL, "smoke": SMOKE, "xl": XL}


# --------------------------------------------------------------------------
# Legacy reference implementations (pre-tensor, verbatim ports).
# --------------------------------------------------------------------------


def _legacy_nearest_time_sample(
    sample_times: np.ndarray,
    query_times: np.ndarray,
    rng: SeedLike = None,
    tie_tolerance: float = 0.0,
) -> np.ndarray:
    """The old nearest-sample kernel: two extra per-query searchsorted calls.

    Duplicate-timestamp runs were located by bisecting every query's winning
    time back into the sample array; the shipped version finds the runs with
    one linear pass over the samples instead.
    """
    times = np.asarray(sample_times, dtype=float)
    queries = np.asarray(query_times, dtype=float)
    if times.size == 0:
        raise EmptyDataError("no samples to draw from")

    right = np.searchsorted(times, queries, side="left")
    left = np.clip(right - 1, 0, times.size - 1)
    right = np.clip(right, 0, times.size - 1)
    dist_left = np.abs(queries - times[left])
    dist_right = np.abs(times[right] - queries)
    take_right = dist_right < dist_left
    nearest = np.where(take_right, right, left)

    generator = spawn_rng(rng)

    tied_lr = np.abs(dist_left - dist_right) <= tie_tolerance
    tied_lr &= left != right
    if np.any(tied_lr):
        flips = generator.random(int(tied_lr.sum())) < 0.5
        chosen = np.where(flips, left[tied_lr], right[tied_lr])
        nearest = nearest.copy()
        nearest[tied_lr] = chosen

    winning_times = times[nearest]
    run_start = np.searchsorted(times, winning_times, side="left")
    run_end = np.searchsorted(times, winning_times, side="right")
    run_len = run_end - run_start
    multi = run_len > 1
    if np.any(multi):
        offsets = (generator.random(int(multi.sum())) * run_len[multi]).astype(np.int64)
        nearest = nearest.copy()
        nearest[multi] = run_start[multi] + offsets
    return nearest


def _legacy_draw_unbiased_samples(logs, n_samples=None, rng=None):
    """The old unbiased draw, wired to the old nearest-sample kernel."""
    from repro.core.unbiased import UnbiasedDraw
    from repro.stats.sampling import random_times

    if logs.is_empty:
        raise EmptyDataError("cannot estimate the unbiased distribution from empty logs")
    generator = spawn_rng(rng)
    order = np.argsort(logs.times, kind="mergesort")
    times = logs.times[order]
    latencies = logs.latencies_ms[order]
    lo, hi = float(times[0]), float(times[-1])
    if hi <= lo:
        hi = lo + 1.0
    if n_samples is None:
        n_samples = int(np.ceil(2.0 * times.size))
    queries = random_times(lo, hi, n_samples, rng=generator)
    selected = _legacy_nearest_time_sample(times, queries, rng=generator)
    return UnbiasedDraw(
        query_times=queries,
        selected_indices=selected,
        sample_times=times,
        sample_latencies=latencies,
    )


def _legacy_period_slots(
    times: np.ndarray, tz_offset_hours: Union[np.ndarray, float] = 0.0
) -> np.ndarray:
    """The old ``period`` branch of ``slot_of_times``: a Python loop."""
    hours = timeutil.hour_of_day(times, tz_offset_hours)
    period_index = {p: i for i, p in enumerate(ALL_DAY_PERIODS)}
    out = np.empty(hours.shape, dtype=np.int64)
    flat = out.ravel()
    for i, h in enumerate(hours.ravel()):
        flat[i] = period_index[DayPeriod.of_hour(float(h))]
    return out


def _legacy_slot_time_coverage(
    start: float,
    end: float,
    scheme: str,
    slot_ids: np.ndarray,
    tz_offset_hours: float = 0.0,
    resolution_s: float = 60.0,
) -> np.ndarray:
    """The old per-slot loop over the minute grid."""
    if end <= start:
        return np.zeros(len(slot_ids), dtype=float)
    grid = np.arange(start, end, resolution_s)
    grid_slots = slot_of_times(grid, scheme, tz_offset_hours)
    out = np.zeros(len(slot_ids), dtype=float)
    for i, slot in enumerate(slot_ids):
        out[i] = float((grid_slots == slot).sum()) * resolution_s
    return out


def _legacy_slotted_counts(
    logs: LogStore,
    bins: HistogramBins,
    scheme: str = "hour-of-day",
    n_unbiased_samples: Optional[int] = None,
    rng: SeedLike = None,
    estimator: str = "sampling",
) -> SlottedCounts:
    """The old ``slotted_counts``: one masked pass over the data per slot.

    Deterministic outputs (biased counts, slot ids, slot seconds) are
    bit-identical to the shipped version. The unbiased time fractions are
    not: this reference samples them with the old fixed-size 12-batch
    redraw loop, while the shipped version computes their exact limit, so
    the two agree only statistically.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot slot empty logs")
    generator = spawn_rng(rng)

    action_slots = slot_of_times(logs.times, scheme, logs.tz_offsets)
    slot_ids = np.unique(action_slots)
    n_slots = slot_ids.size

    c = np.zeros((n_slots, bins.count), dtype=float)
    bin_idx = bins.index_of(logs.latencies_ms)
    in_grid = bin_idx >= 0
    for row, slot in enumerate(slot_ids):
        mask = (action_slots == slot) & in_grid
        np.add.at(c[row], bin_idx[mask], 1.0)

    tz = float(np.median(logs.tz_offsets)) if len(logs) else 0.0
    u = np.zeros((n_slots, bins.count), dtype=float)
    if estimator == "voronoi":
        from repro.core.unbiased import voronoi_weights

        order = np.argsort(logs.times, kind="mergesort")
        sorted_times = logs.times[order]
        sorted_latencies = logs.latencies_ms[order]
        sorted_tz = logs.tz_offsets[order]
        weights = voronoi_weights(sorted_times)
        sample_slots = slot_of_times(sorted_times, scheme, sorted_tz)
        v_bin_idx = bins.index_of(sorted_latencies)
        v_in_grid = v_bin_idx >= 0
        for row, slot in enumerate(slot_ids):
            mask = (sample_slots == slot) & v_in_grid
            np.add.at(u[row], v_bin_idx[mask], weights[mask])
    else:
        target = n_unbiased_samples if n_unbiased_samples is not None else 2 * len(logs)
        accepted = 0
        for _ in range(12):
            draw = _legacy_draw_unbiased_samples(logs, n_samples=target, rng=generator)
            query_slots = slot_of_times(draw.query_times, scheme, tz)
            u_bin_idx = bins.index_of(draw.selected_latencies)
            u_in_grid = u_bin_idx >= 0
            for row, slot in enumerate(slot_ids):
                mask = (query_slots == slot) & u_in_grid
                accepted += int(mask.sum())
                np.add.at(u[row], u_bin_idx[mask], 1.0)
            if accepted >= target:
                break
    slot_totals = u.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(slot_totals > 0, u / slot_totals, 0.0)

    t0, t1 = logs.time_range()
    seconds = _legacy_slot_time_coverage(t0, t1, scheme, slot_ids, tz_offset_hours=tz)
    return SlottedCounts(
        scheme=scheme, slot_ids=slot_ids, biased_counts=c, time_fractions=f,
        bins=bins, slot_seconds=seconds,
    )


def _legacy_corrected_histograms(logs, bins, alpha):
    """The old ``corrected_histograms``: rescans every raw action.

    This is what the per-reference loop in ``preference_curve`` used to
    call once *per reference slot* — the rescan the tensor contraction
    removed.
    """
    if logs.is_empty:
        raise EmptyDataError("cannot build corrected histograms from empty logs")
    slot_index = {int(s): i for i, s in enumerate(alpha.slot_ids)}
    action_slots = slot_of_times(logs.times, alpha.scheme, logs.tz_offsets)
    weights = np.empty(len(logs), dtype=float)
    for slot, row in slot_index.items():
        a = alpha.alpha_by_slot[row]
        weights[action_slots == slot] = 1.0 / a if a > 0 else 0.0

    biased = Histogram1D(bins)
    biased.add(logs.latencies_ms, weights=weights)

    unbiased = Histogram1D(bins)
    pooled = alpha.time_fractions.sum(axis=0)
    unbiased.add_counts(pooled * 10_000.0)
    return biased, unbiased


# --------------------------------------------------------------------------
# Report containers.
# --------------------------------------------------------------------------


@dataclass
class StageTiming:
    """One timed stage, optionally against its legacy reference."""

    name: str
    seconds: float
    baseline_seconds: Optional[float] = None
    max_abs_diff: Optional[float] = None
    detail: str = ""

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline_seconds is None or self.seconds <= 0:
            return None
        return self.baseline_seconds / self.seconds

    def to_dict(self) -> Dict:
        return {
            "seconds": round(self.seconds, 6),
            "baseline_seconds": (
                None if self.baseline_seconds is None
                else round(self.baseline_seconds, 6)
            ),
            "speedup": None if self.speedup is None else round(self.speedup, 3),
            "max_abs_diff": (
                None if self.max_abs_diff is None else float(self.max_abs_diff)
            ),
            "detail": self.detail,
        }


@dataclass
class PerfReport:
    """All stage timings for one scale, JSON-serializable."""

    scale_name: str
    seed: int
    n_actions: int
    n_users: int
    duration_days: float
    stages: List[StageTiming] = field(default_factory=list)
    #: Wall-clock per span name from one traced corrected-path run:
    #: ``{span_name: {"count": n, "seconds": total}}``. Complements the
    #: stage table with the tracer's own view of where time went.
    span_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def stage(self, name: str) -> StageTiming:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}")

    def span_shares(self) -> Dict[str, float]:
        """Each span's share of the total traced wall time (0..1).

        The "where does the next optimization live" column: the largest
        share is the current bottleneck, readable straight from
        ``BENCH_pipeline.json`` without summing anything by hand.
        """
        total = sum(agg.get("seconds", 0.0) for agg in self.span_timings.values())
        if total <= 0:
            return {name: 0.0 for name in self.span_timings}
        return {
            name: agg.get("seconds", 0.0) / total
            for name, agg in self.span_timings.items()
        }

    def to_dict(self) -> Dict:
        shares = self.span_shares()
        return {
            "scale": self.scale_name,
            "seed": self.seed,
            "n_actions": self.n_actions,
            "n_users": self.n_users,
            "duration_days": self.duration_days,
            "stages": {s.name: s.to_dict() for s in self.stages},
            "span_timings": {
                name: {**agg, "share": round(shares[name], 4)}
                for name, agg in sorted(self.span_timings.items())
            },
        }

    def render(self) -> str:
        lines = [
            f"perf suite [{self.scale_name}] — {self.n_actions} actions, "
            f"{self.n_users} users, {self.duration_days:g} days (seed {self.seed})",
            f"  {'stage':<28} {'new (s)':>10} {'legacy (s)':>11} {'speedup':>8}",
        ]
        for s in self.stages:
            base = f"{s.baseline_seconds:11.3f}" if s.baseline_seconds is not None else " " * 11
            speed = f"{s.speedup:7.1f}x" if s.speedup is not None else " " * 8
            lines.append(f"  {s.name:<28} {s.seconds:10.3f} {base} {speed}")
            if s.detail:
                lines.append(f"    {s.detail}")
        if self.span_timings:
            shares = self.span_shares()
            lines.append(f"  {'span':<28} {'count':>7} {'total (s)':>10} {'share':>7}")
            for name, agg in sorted(self.span_timings.items()):
                lines.append(
                    f"  {name:<28} {int(agg['count']):7d} {agg['seconds']:10.4f} "
                    f"{shares[name]:6.1%}")
        return "\n".join(lines)


def _timed(fn, repeats: int = 1):
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _curve_diff(a: PreferenceResult, b: PreferenceResult) -> float:
    mask = np.isfinite(a.nlp) & np.isfinite(b.nlp)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a.nlp[mask] - b.nlp[mask])))


def _corrected_path(logs: LogStore, config: AutoSensConfig, legacy: bool) -> PreferenceResult:
    """The full time-corrected multi-reference path, one implementation.

    ``legacy=True`` reproduces the pre-refactor flow: per-slot loops in
    ``slotted_counts``, then one full rescan of the raw actions per
    reference slot. ``legacy=False`` is the shipped tensor flow.
    """
    bins = config.bins()
    computer = config.computer()
    if legacy:
        counts = _legacy_slotted_counts(
            logs, bins, scheme=config.slot_scheme,
            n_unbiased_samples=int(np.ceil(UNBIASED_MASS_PER_ACTION * len(logs))),
            rng=config.seed,
        )
    else:
        counts = slotted_counts(logs, bins, scheme=config.slot_scheme)
    references = counts.busiest_slots(config.n_reference_slots)
    per_reference = []
    for reference in references:
        alpha = alpha_from_counts(
            counts,
            reference_slot=reference,
            bin_average=config.alpha_bin_average,
            min_bin_count=config.alpha_min_bin_count,
        )
        if legacy:
            biased, unbiased = _legacy_corrected_histograms(logs, bins, alpha)
        else:
            biased, unbiased = corrected_histograms_from_counts(counts, alpha)
        per_reference.append(
            computer.compute(
                biased, unbiased,
                slice_description="perf", n_actions=len(logs),
            )
        )
    return average_results(per_reference, slice_description="perf")


def run_perf_suite(
    scale: Union[str, Scale] = "full",
    seed: int = 0,
    repeats: int = 2,
    legacy: bool = True,
) -> PerfReport:
    """Time every refactored stage at the given scale.

    Stages (new vs legacy where a legacy reference exists):

    - ``generate``: workload synthesis (chunked; serial executor).
    - ``period_slots``: the hour→period lookup vs the old Python loop.
    - ``slotted_counts``: the exact U weights + count tensor vs the old
      per-slot masks and 12-batch redraw loop.
    - ``corrected_multi_reference``: the full time-corrected
      multi-reference path — the acceptance-criterion stage.
    - ``preference_curve``: one cold engine call (absolute time only).
    - ``sweep_by_action``: ``curves_by_action`` cold, then re-swept with a
      warm slice cache as the baselineless "cached" variant.

    ``legacy=False`` skips every legacy reference run (their baselines and
    diffs are reported as null) — the only practical way to run the ``xl``
    scale, where the per-slot Python loops take minutes.
    """
    if isinstance(scale, str):
        try:
            scale = PERF_SCALES[scale]
            scale_name = [k for k, v in PERF_SCALES.items() if v is scale][0]
        except KeyError:
            raise ValueError(
                f"unknown perf scale {scale!r}; pick one of {sorted(PERF_SCALES)}"
            ) from None
    else:
        scale_name = "custom"
    for name, known in PERF_SCALES.items():
        if known == scale:
            scale_name = name

    scenario = owa_scenario(
        seed=seed,
        duration_days=scale.duration_days,
        n_users=scale.n_users,
        candidates_per_user_day=scale.candidates_per_user_day,
    )
    gen_seconds, result = _timed(lambda: scenario.generate())
    logs = result.logs

    report = PerfReport(
        scale_name=scale_name,
        seed=seed,
        n_actions=len(logs),
        n_users=scale.n_users,
        duration_days=scale.duration_days,
    )
    report.stages.append(StageTiming(
        name="generate", seconds=gen_seconds,
        detail=f"{result.n_accepted} accepted of {result.n_candidates} candidates",
    ))

    config = AutoSensConfig(seed=seed)
    bins = config.bins()
    sliced = logs.successful()

    # Stage: period slot lookup (satellite vectorization).
    new_s, new_slots = _timed(lambda: slot_of_times(sliced.times, "period", sliced.tz_offsets), repeats)
    if legacy:
        old_s, old_slots = _timed(lambda: _legacy_period_slots(sliced.times, sliced.tz_offsets), repeats)
        slots_diff = float(np.max(np.abs(new_slots - old_slots))) if len(sliced) else 0.0
    else:
        old_s, slots_diff = None, None
    report.stages.append(StageTiming(
        name="period_slots", seconds=new_s, baseline_seconds=old_s,
        max_abs_diff=slots_diff,
    ))

    # Stage: the count tensor + exact U. The biased half stays bit-identical
    # to the legacy loops; the legacy time fractions are a Monte Carlo
    # draw, so their diff is sampling noise — max_abs_diff reports that
    # statistical bound, and the detail line records the (always 0) biased
    # diff separately.
    new_s, new_counts = _timed(lambda: slotted_counts(sliced, bins), repeats)
    if legacy:
        old_s, old_counts = _timed(lambda: _legacy_slotted_counts(
            sliced, bins,
            n_unbiased_samples=int(np.ceil(UNBIASED_MASS_PER_ACTION * len(sliced))),
            rng=seed), repeats)
        biased_diff = float(np.max(np.abs(new_counts.biased_counts - old_counts.biased_counts)))
        fraction_diff = float(np.max(np.abs(new_counts.time_fractions - old_counts.time_fractions)))
        counts_detail = (
            f"{new_counts.slot_ids.size} slots x {bins.count} bins; "
            f"biased_diff={biased_diff:g} (bitwise), fraction diff is MC noise"
        )
    else:
        old_s, fraction_diff = None, None
        counts_detail = f"{new_counts.slot_ids.size} slots x {bins.count} bins"
    report.stages.append(StageTiming(
        name="slotted_counts", seconds=new_s, baseline_seconds=old_s,
        max_abs_diff=fraction_diff,
        detail=counts_detail,
    ))

    # Stage: the acceptance criterion — the end-to-end time-corrected
    # multi-reference path (counts + one correction per reference slot).
    new_s, new_curve = _timed(lambda: _corrected_path(sliced, config, legacy=False), repeats)
    if legacy:
        old_s, old_curve = _timed(lambda: _corrected_path(sliced, config, legacy=True), repeats)
        curve_diff = _curve_diff(new_curve, old_curve)
    else:
        old_s, curve_diff = None, None
    report.stages.append(StageTiming(
        name="corrected_multi_reference", seconds=new_s, baseline_seconds=old_s,
        max_abs_diff=curve_diff,
        detail=f"{config.n_reference_slots} reference slots",
    ))

    # Stage: one cold preference_curve through the engine (absolute time).
    engine = AutoSens(config)
    action = logs.action_names()[0]
    curve_s, _ = _timed(lambda: AutoSens(config).preference_curve(logs, action=action))
    report.stages.append(StageTiming(name="preference_curve", seconds=curve_s,
                                     detail=f"action={action}"))

    # Stage: the by-action sweep, cold vs warm slice cache.
    cold_s, _ = _timed(lambda: engine.curves_by_action(logs))
    warm_s, _ = _timed(lambda: engine.curves_by_action(logs))
    report.stages.append(StageTiming(
        name="sweep_by_action", seconds=warm_s, baseline_seconds=cold_s,
        detail=f"{len(logs.action_names())} actions; warm cache vs cold "
               f"({engine.cache.hits} hits / {engine.cache.misses} misses)",
    ))

    # Stage: observability overhead. The corrected path again, traced vs
    # untraced — "baseline" is the untraced run, so a healthy build shows a
    # speedup near 1.0 and a tracing regression drags it toward 0. The
    # traced run also feeds ``span_timings``: the tracer's own account of
    # where the wall time went, aggregated per span name.
    off_s, _ = _timed(lambda: _corrected_path(sliced, config, legacy=False), repeats)
    with obs.session(enabled=True, level="error"):
        on_s, _ = _timed(lambda: _corrected_path(sliced, config, legacy=False), repeats)
        report.span_timings = obs.aggregate_span_timings(obs.trace_records())
    report.stages.append(StageTiming(
        name="obs_overhead", seconds=on_s, baseline_seconds=off_s,
        detail="corrected path traced vs untraced; ratio ~1.0 means "
               "tracing is near-free",
    ))
    return report
