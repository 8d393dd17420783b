"""The end-to-end AutoSens pipeline.

:class:`AutoSens` ties the pieces together exactly as the paper describes:

1. slice the telemetry (action type, user class, period, month — the
   content and conditioning confounders are handled by segregation);
2. mitigate the time confounder by estimating the per-slot activity factor
   α and normalizing counts (Section 2.4.1), averaging over several
   reference slots;
3. build the biased (B) and unbiased (U) latency distributions on a shared
   10 ms grid (Section 2.2);
4. compute, smooth and normalize the preference ratio B/U into the
   normalized latency preference curve (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.obs import probes
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    InsufficientDataError,
)
from repro.parallel import SerialExecutor, resolve_executor
from repro.runtime.memory import estimate_counts_bytes
from repro.runtime.supervisor import active_supervisor, check_deadline
from repro.stats.histogram import HistogramBins, latency_bins
from repro.stats.rng import RngFactory
from repro.core.alpha import (
    AlphaEstimate,
    SlottedCounts,
    alpha_from_counts,
    corrected_histograms_from_counts,
    slotted_counts,
)
from repro.core.biased import biased_histogram
from repro.core.locality import (
    DensityLatencySeries,
    density_latency_series,
    locality_report,
)
from repro.core.preference import PreferenceComputer, average_results
from repro.core.quartiles import QUARTILE_NAMES, assign_quartiles, quartile_slices
from repro.core.result import PreferenceResult
from repro.core.unbiased import unbiased_histogram
from repro.stats.msd import LocalityComparison
from repro.telemetry.log_store import LogStore
from repro.types import ALL_DAY_PERIODS, ActionType, DayPeriod, UserClass


@dataclass(frozen=True)
class AutoSensConfig:
    """All methodology knobs, defaulting to the paper's choices."""

    max_latency_ms: float = 3000.0
    bin_width_ms: float = 10.0
    smoothing_window: int = 101
    smoothing_degree: int = 3
    reference_ms: float = 300.0
    min_unbiased_count: float = 40.0
    time_correction: bool = True
    slot_scheme: str = "hour-of-day"
    n_reference_slots: int = 3
    alpha_bin_average: str = "simple"
    alpha_min_bin_count: float = 5.0
    min_actions: int = 200
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_reference_slots < 1:
            raise ConfigError(
                f"n_reference_slots must be >= 1, got {self.n_reference_slots}"
            )

    def bins(self) -> HistogramBins:
        return latency_bins(self.max_latency_ms, self.bin_width_ms)

    def computer(self) -> PreferenceComputer:
        return PreferenceComputer(
            smoothing_window=self.smoothing_window,
            smoothing_degree=self.smoothing_degree,
            reference_ms=self.reference_ms,
            min_unbiased_count=self.min_unbiased_count,
        )


def _slice_key(
    action: Any,
    user_class: Any,
    period: Optional[DayPeriod],
    month: Optional[int],
    days_per_month: int,
) -> Tuple:
    """Normalize a slice predicate to the tuple that keys its spans."""

    def norm(value: Any) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, (ActionType, UserClass, DayPeriod)):
            return str(value.value)
        return str(value)

    return (norm(action), norm(user_class), norm(period), month, days_per_month)


@dataclass(frozen=True)
class DegradePolicy:
    """What to do when part of a sweep is starved of data.

    The strict default (no policy) fails the whole multi-minute sweep on
    the first :class:`InsufficientDataError`. Under a degrade policy the
    pipeline instead *narrows* the answer and records what it dropped:

    - ``on_starved_slice="skip"`` — a sweep slice (one action type, one
      user class, one period...) below ``min_actions`` is dropped from the
      result dict with a recorded warning instead of aborting the sweep.
    - ``on_starved_reference="skip"`` — a reference slot whose corrected
      histograms cannot support a curve is dropped; the remaining
      references are averaged as long as at least ``min_references``
      survive.
    - ``on_over_budget="shed"`` — when an ambient supervised deadline
      (see :mod:`repro.runtime`) expires mid-sweep, the not-yet-computed
      slices are *shed* (dropped with a recorded ``deadline_exceeded``
      degradation) and the sweep returns the slices it finished in time;
      ``"raise"`` instead propagates
      :class:`~repro.errors.DeadlineExceededError`. Without a supervised
      deadline this knob is inert.

    Warnings accumulate on :attr:`AutoSens.degradations` (and per-curve in
    ``result.metadata["degradations"]``) — degradation is always visible,
    never silent.
    """

    on_starved_slice: str = "skip"
    on_starved_reference: str = "skip"
    min_references: int = 1
    on_over_budget: str = "shed"

    def __post_init__(self) -> None:
        for name in ("on_starved_slice", "on_starved_reference"):
            value = getattr(self, name)
            if value not in ("raise", "skip"):
                raise ConfigError(f"{name} must be 'raise' or 'skip', got {value!r}")
        if self.min_references < 1:
            raise ConfigError(
                f"min_references must be >= 1, got {self.min_references}"
            )
        if self.on_over_budget not in ("raise", "shed"):
            raise ConfigError(
                f"on_over_budget must be 'raise' or 'shed', "
                f"got {self.on_over_budget!r}"
            )


@dataclass(frozen=True)
class SubsamplePolicy:
    """Deterministic probe/user/time subsampling, applied after slicing.

    The sensitivity suite's "reduced probing" axis: keep a random fraction
    of events, of users, or of coarse time windows before estimating the
    curve, to measure how much telemetry the estimator actually needs.

    - ``event_fraction`` — Bernoulli keep per event (probe subsampling).
    - ``user_fraction`` — keep whole users: a user is either fully present
      or fully absent, the honest model of per-device sampling flags.
    - ``time_fraction`` — keep whole time windows (``n_time_windows``
      equal spans over the slice's range), the model of a collector that
      is simply off for part of the day.

    Determinism contract: the draws come from a pure stream named only by
    the slice (``subsample/{description}``) and are made in a fixed order
    and count regardless of which fractions are active, so changing one
    fraction never moves another axis's draws and the kept sets are
    monotone nested across a fraction ladder (1 ⊇ 1/2 ⊇ 1/4 ⊇ 1/8).
    Fractions of exactly 1.0 on every axis make the policy a no-op: the
    pipeline skips the hook entirely and touches no randomness.

    A subsampled run always records an obs degradation — reduced probing
    is never silent. If the kept set falls below ``min_actions`` the slice
    raises :class:`InsufficientDataError` like any other starved slice
    (and degrades gracefully under a :class:`DegradePolicy`).
    """

    event_fraction: float = 1.0
    user_fraction: float = 1.0
    time_fraction: float = 1.0
    n_time_windows: int = 32

    def __post_init__(self) -> None:
        for name in ("event_fraction", "user_fraction", "time_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        if self.n_time_windows < 1:
            raise ConfigError(
                f"n_time_windows must be >= 1, got {self.n_time_windows}"
            )

    @property
    def is_active(self) -> bool:
        return (
            self.event_fraction < 1.0
            or self.user_fraction < 1.0
            or self.time_fraction < 1.0
        )

    def describe(self) -> str:
        return (
            f"events x{self.event_fraction:g}, users x{self.user_fraction:g}, "
            f"time x{self.time_fraction:g}"
        )


@dataclass(frozen=True)
class _StarvedSlice:
    """Picklable marker a worker returns for a skipped (degraded) slice."""

    reason: str


@dataclass(frozen=True)
class _ShedSlice:
    """Marker for a sweep slice shed by the supervisor (never computed)."""

    reason: str


def _curve_task(payload: Tuple) -> Tuple[Any, List[str]]:
    """Top-level (picklable) sweep task: one preference curve per item.

    Every sweep task, inline or in a worker, rebuilds the engine from the
    config alone; because the pipeline draws its randomness from pure named
    streams, a fresh engine in another process produces bit-identical
    results to one in this process. Returns ``(curve, notes)`` where
    ``notes`` are the engine's :attr:`AutoSens.degradations` for this task.
    Under a degrade policy a starved slice comes back as a
    :class:`_StarvedSlice` marker rather than an exception, so one empty
    slice cannot fail the pool fan-out.
    """
    config, degrade, subsample, logs, kwargs = payload
    engine = AutoSens(config, degrade=degrade, subsample=subsample)
    try:
        return engine.preference_curve(logs, **kwargs), engine.degradations
    except InsufficientDataError as exc:
        if degrade is not None and degrade.on_starved_slice == "skip":
            return _StarvedSlice(str(exc)), engine.degradations
        raise


def reference_averaged_curve(
    counts: SlottedCounts,
    config: AutoSensConfig,
    slice_description: str = "",
    n_actions: Optional[int] = None,
    degrade: Optional[DegradePolicy] = None,
) -> PreferenceResult:
    """The α-corrected curve of a :class:`SlottedCounts` table (§2.4.1).

    The one counts-to-curve path, shared by :class:`AutoSens`,
    :func:`repro.core.curve_from_counts` and
    :class:`repro.core.StreamingAutoSens`: one curve per each of the
    ``config.n_reference_slots`` busiest reference slots, averaged. The
    references are one stacked pass: one α broadcast, one U, one smoothing
    of the (references, bins) ratio stack; only the normalization and the
    starved check are per reference. Under
    ``degrade.on_starved_reference="skip"`` a reference that cannot support
    a curve is dropped and recorded in ``result.metadata["degradations"]``.
    ``n_actions`` defaults to the table's in-grid action count. A table
    holds no sample times to rebuild the uncorrected U from, so
    ``time_correction=False`` is a :class:`ConfigError`.
    """
    if not config.time_correction:
        raise ConfigError("a counts table cannot give the uncorrected curve "
                          "(it holds no sample times); use time_correction=True")
    if counts.bins != config.bins():
        raise ConfigError(
            "counts table bin grid does not match the configuration "
            f"({counts.bins} vs {config.bins()})"
        )
    if n_actions is None:
        n_actions = int(counts.biased_counts.sum())
    references = counts.busiest_slots(config.n_reference_slots)
    skip_references = degrade is not None and degrade.on_starved_reference == "skip"
    check_deadline(f"reference slots {references} [{slice_description}]")
    with probes.row_major(), obs.span("corrected_reference", slots=references):
        alpha = alpha_from_counts(
            counts,
            reference_slot=references,
            bin_average=config.alpha_bin_average,
            min_bin_count=config.alpha_min_bin_count,
        )
        biased, unbiased = corrected_histograms_from_counts(counts, alpha)
        try:
            per_reference = config.computer().compute(
                biased, unbiased,
                slice_description=slice_description, n_actions=n_actions,
            )
        except InsufficientDataError as exc:
            # A failure shared by every reference (no stable bin in U).
            if not skip_references:
                raise
            per_reference = [exc] * len(references)
    kept = []
    used_references = []
    degraded: List[str] = []
    for reference, row in zip(references, per_reference):
        if not isinstance(row, InsufficientDataError):
            kept.append(row)
            used_references.append(reference)
            continue
        if not skip_references:
            raise row
        degraded.append(
            f"slice [{slice_description}]: reference slot {reference} "
            f"skipped ({row})"
        )
        obs.record_degradation(
            "starved_reference", slice=slice_description,
            reference_slot=int(reference), detail=str(row))
    if skip_references and len(kept) < degrade.min_references:
        raise InsufficientDataError(
            f"slice [{slice_description}]: only {len(kept)} of "
            f"{len(references)} reference slots usable; need at least "
            f"{degrade.min_references}"
        )
    if obs.current().enabled:
        probes.emit(probes.probe_slot_support(
            n_slots=int(counts.slot_ids.size),
            n_reference_slots=len(references),
            n_used_references=len(used_references),
            slice_description=slice_description,
        ))
        probes.emit(probes.probe_latency_regime(
            counts.biased_counts, counts.bins.centers,
            slice_description=slice_description,
        ))
    result = average_results(kept, slice_description=slice_description)
    result.metadata["reference_slots"] = used_references
    result.metadata["normalized_at_ms"] = [r.metadata["normalized_at_ms"] for r in kept]
    if degraded:
        result.metadata["degradations"] = degraded
    return result


class AutoSens:
    """The AutoSens analysis engine.

    >>> engine = AutoSens()
    >>> curve = engine.preference_curve(logs, action="SelectMail")
    >>> curve.at(1000.0)    # e.g. 0.68: 32 % less activity than at 300 ms

    ``executor`` selects how the ``curves_by_*`` sweeps fan out
    (``None``/``"serial"``, ``"process"``, a worker count, or any object
    with ``map_ordered`` — see :mod:`repro.parallel`). It is pure
    plumbing: every backend yields bit-identical results.

    ``degrade`` (a :class:`DegradePolicy`) turns sweep-level
    :class:`InsufficientDataError` aborts into recorded warnings: starved
    slices are dropped from sweep results and starved reference slots are
    skipped, with every degradation appended to :attr:`degradations`.

    ``subsample`` (a :class:`SubsamplePolicy`) deterministically thins
    each slice (per-event, per-user, and/or per-time-window fractions)
    before estimation, always recording an obs degradation — the
    sensitivity suite's reduced-probing axis.
    """

    def __init__(
        self,
        config: Optional[AutoSensConfig] = None,
        executor: Any = None,
        degrade: Optional[DegradePolicy] = None,
        subsample: Optional[SubsamplePolicy] = None,
    ) -> None:
        self.config = config or AutoSensConfig()
        self._rng = RngFactory(self.config.seed)
        self.executor = resolve_executor(executor)
        self.degrade = degrade
        self.subsample = subsample
        #: Human-readable log of everything a degrade policy dropped.
        self.degradations: List[str] = []

    def cache_stats(self) -> Dict[str, int]:
        """Always-zero counters of the retired slice cache.

        Kept for callers that still read them; the engine memoizes nothing.
        """
        return {"hits": 0, "misses": 0, "evictions": 0,
                "entries": 0, "max_entries": 0}

    # -- slicing ------------------------------------------------------------

    def _slice(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
        user_class: Union[str, UserClass, None] = None,
        period: Optional[DayPeriod] = None,
        month: Optional[int] = None,
        days_per_month: int = 30,
    ) -> tuple:
        key = _slice_key(action, user_class, period, month, days_per_month)
        with obs.span("slice", predicate=str(key)):
            sliced = logs.where(
                action=action,
                user_class=user_class,
                period=period,
                month=month,
                days_per_month=days_per_month,
            )
        parts = []
        if action is not None:
            parts.append(f"action={action}")
        if user_class is not None:
            parts.append(f"class={user_class}")
        if period is not None:
            parts.append(f"period={period.value}")
        if month is not None:
            parts.append(f"month={month}")
        description = ", ".join(parts) if parts else "all actions"
        if len(sliced) < self.config.min_actions:
            raise InsufficientDataError(
                f"slice [{description}] has {len(sliced)} actions; "
                f"need at least {self.config.min_actions}"
            )
        return sliced, description

    def _apply_subsample(self, sliced: LogStore, description: str) -> LogStore:
        """Apply the engine's :class:`SubsamplePolicy` to a sliced store."""
        policy = self.subsample
        stream = self._rng.stream(f"subsample/{description}")
        n = len(sliced)
        # Fixed draw order and counts whatever the fractions: per-event,
        # then per-user, then per-window. Fractions are compared against
        # the same draws at every level, so kept sets nest monotonically.
        u_event = stream.random(n)
        user_codes, _ = sliced.per_user_action_count()
        u_user = stream.random(user_codes.size)
        u_window = stream.random(policy.n_time_windows)
        mask = u_event < policy.event_fraction
        if policy.user_fraction < 1.0:
            kept_users = user_codes[u_user < policy.user_fraction]
            mask &= np.isin(sliced.user_codes, kept_users)
        if policy.time_fraction < 1.0:
            t0 = float(sliced.times.min())
            span = max(float(sliced.times.max()) - t0, 1e-9)
            windows = np.minimum(
                ((sliced.times - t0) / span * policy.n_time_windows).astype(int),
                policy.n_time_windows - 1,
            )
            mask &= (u_window < policy.time_fraction)[windows]
        kept = sliced.filter(mask)
        note = (
            f"slice [{description}] subsampled ({policy.describe()}): "
            f"kept {len(kept)} of {n} actions"
        )
        self.degradations.append(note)
        obs.record_degradation(
            "subsample", slice=description,
            event_fraction=policy.event_fraction,
            user_fraction=policy.user_fraction,
            time_fraction=policy.time_fraction,
            n_before=n, n_kept=len(kept),
        )
        if len(kept) < self.config.min_actions:
            raise InsufficientDataError(
                f"slice [{description}] has {len(kept)} actions after "
                f"subsampling ({policy.describe()}); need at least "
                f"{self.config.min_actions}"
            )
        return kept

    # -- the main entry point ---------------------------------------------------

    def preference_curve(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
        user_class: Union[str, UserClass, None] = None,
        period: Optional[DayPeriod] = None,
        month: Optional[int] = None,
        days_per_month: int = 30,
    ) -> PreferenceResult:
        """Compute the normalized latency preference for a telemetry slice."""
        key = _slice_key(action, user_class, period, month, days_per_month)
        with obs.span("preference_curve", key=f"curve:{key}") as curve_span:
            return self._preference_curve_inner(
                logs, action, user_class, period, month,
                days_per_month, curve_span,
            )

    def _preference_curve_inner(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None],
        user_class: Union[str, UserClass, None],
        period: Optional[DayPeriod],
        month: Optional[int],
        days_per_month: int,
        curve_span: Any,
    ) -> PreferenceResult:
        cfg = self.config
        sliced, description = self._slice(
            logs, action, user_class, period, month, days_per_month
        )
        if self.subsample is not None and self.subsample.is_active:
            sliced = self._apply_subsample(sliced, description)
        curve_span.set(slice=description, n_actions=len(sliced))
        check_deadline(f"curve [{description}]")
        bins = cfg.bins()
        supervisor = active_supervisor()
        if supervisor is not None and supervisor.memory is not None:
            # Admission control: refuse a slice whose working set cannot
            # fit the hard budget at all, before the expensive pass runs.
            supervisor.memory.admit(
                estimate_counts_bytes(len(sliced), bins.count),
                what=f"slice [{description}]",
            )
        if not cfg.time_correction:
            return cfg.computer().compute(
                biased_histogram(sliced, bins), unbiased_histogram(sliced, bins),
                slice_description=description, n_actions=len(sliced),
            )

        # The expensive part — one pass over the actions plus the exact
        # unbiased weights — happens exactly once per slice; every reference
        # slot is then an O(n_slots × n_bins) contraction of the tensor.
        with obs.span("slotted_counts", n_actions=len(sliced)):
            counts = slotted_counts(sliced, bins, scheme=cfg.slot_scheme)
        result = reference_averaged_curve(
            counts, cfg, description, n_actions=len(sliced), degrade=self.degrade)
        self.degradations.extend(result.metadata.get("degradations", []))
        return result

    # -- segmentations (the paper's figures) ------------------------------------

    def _sweep(self, tasks: List[Tuple[LogStore, Dict[str, Any]]]) -> List[Optional[PreferenceResult]]:
        """Run one :func:`_curve_task` per ``(logs, preference_curve kwargs)``.

        Tasks run in *waves*: one wave holds every task unless a memory
        governor bounds how many working sets may be live at once. A wave
        runs inline on :class:`~repro.parallel.SerialExecutor` (reporting
        its progress without task spans) and through ``map_ordered``
        otherwise; pure stream seeding makes the two bit-identical, and each
        task's degradation notes join :attr:`degradations` in input order.

        Under a degrade policy with ``on_starved_slice="skip"`` a starved
        slice yields ``None`` (with the reason recorded on
        :attr:`degradations`) instead of aborting the sweep; the
        ``curves_by_*`` wrappers drop those entries from their result
        dicts.

        Inside an entered :class:`~repro.runtime.supervisor.Supervisor`
        scope, once its deadline has expired the sweep *sheds* the work not
        yet run (a single task inline, a whole wave on a pool), recording a
        ``deadline_exceeded`` degradation per task, or raises
        :class:`DeadlineExceededError` under ``on_over_budget="raise"``.
        Without a supervisor nothing is shed and a deadline error
        propagates.
        """
        supervisor = active_supervisor()
        if supervisor is not None and not supervisor.enabled:
            supervisor = None
        deadline = supervisor.deadline if supervisor is not None else None
        governor = supervisor.memory if supervisor is not None else None
        shed_over_budget = (
            self.degrade is None or self.degrade.on_over_budget == "shed"
        )

        def over_budget() -> bool:
            if deadline is None or not deadline.expired():
                return False
            if not shed_over_budget:
                deadline.check("sweep")  # raises DeadlineExceededError
            return True

        def shed(idx: int) -> Tuple[_ShedSlice, List[str]]:
            reason = (
                f"sweep task {idx} shed: deadline of "
                f"{deadline.budget_s:.4g}s exceeded after "
                f"{deadline.elapsed():.4g}s"
            )
            supervisor.shed("deadline_exceeded", task=idx, detail=reason)
            return _ShedSlice(reason), []

        payloads = [
            (self.config, self.degrade, self.subsample, lg, kw)
            for lg, kw in tasks
        ]
        wave_size = max(1, len(payloads))
        if governor is not None and payloads:
            per_task = max(
                estimate_counts_bytes(len(lg), self.config.bins().count)
                for lg, _ in tasks
            )
            wave_size = governor.max_concurrent(per_task, len(payloads))

        serial = isinstance(self.executor, SerialExecutor)
        stage = _curve_task.__qualname__
        results: List[Any] = []
        with obs.span("sweep", n_tasks=len(tasks),
                      backend=type(self.executor).__name__):
            for start in range(0, len(payloads), wave_size):
                wave = payloads[start:start + wave_size]
                if serial:
                    obs.report_progress(stage, total=len(wave))
                    done = []
                    for j, p in enumerate(wave):
                        done.append(shed(start + j) if over_budget()
                                    else _curve_task(p))
                        obs.report_progress(stage, done=1)
                elif over_budget():
                    done = [shed(start + j) for j in range(len(wave))]
                else:
                    try:
                        done = self.executor.map_ordered(_curve_task, wave)
                    except DeadlineExceededError:
                        if deadline is None or not shed_over_budget:
                            raise
                        # The pool-side wait ran out mid-wave; shed the wave
                        # whole — partial pool results are not recoverable
                        # without exceeding the budget further.
                        done = [shed(start + j) for j in range(len(wave))]
                for value, notes in done:
                    self.degradations.extend(notes)
                    results.append(value)
        out: List[Optional[PreferenceResult]] = []
        for result in results:
            if isinstance(result, _StarvedSlice):
                self.degradations.append(f"slice skipped: {result.reason}")
                obs.record_degradation("starved_slice", detail=result.reason)
                out.append(None)
            elif isinstance(result, _ShedSlice):
                # The degradation was recorded by the supervisor when the
                # slice was shed; keep the local human-readable log too.
                self.degradations.append(f"slice shed: {result.reason}")
                out.append(None)
            else:
                out.append(result)
        return out

    def curves_by_action(
        self,
        logs: LogStore,
        actions: Optional[List] = None,
        user_class: Union[str, UserClass, None] = None,
    ) -> Dict[str, PreferenceResult]:
        """Figure 4: one curve per action type."""
        names = actions if actions is not None else logs.action_names()
        keys = [name.value if isinstance(name, ActionType) else str(name) for name in names]
        curves = self._sweep(
            [(logs, {"action": key, "user_class": user_class}) for key in keys]
        )
        return {k: c for k, c in zip(keys, curves) if c is not None}

    def curves_by_user_class(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
    ) -> Dict[str, PreferenceResult]:
        """Figure 5: one curve per subscription class."""
        names = [name for name in logs.class_names() if name]
        curves = self._sweep(
            [(logs, {"action": action, "user_class": name}) for name in names]
        )
        return {n: c for n, c in zip(names, curves) if c is not None}

    def curves_by_quartile(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
        min_actions_per_user: int = 5,
    ) -> Dict[str, PreferenceResult]:
        """Figure 6: one curve per median-latency quartile.

        Quartiles are assigned from the *full* slice (all hours) before the
        per-quartile curves are computed.
        """
        base = logs.where(action=action) if action is not None else logs.successful()
        assignment = assign_quartiles(base, min_actions_per_user=min_actions_per_user)
        slices = quartile_slices(base, assignment)
        curves = self._sweep([(slices[name], {}) for name in QUARTILE_NAMES])
        out: Dict[str, PreferenceResult] = {}
        for name, curve in zip(QUARTILE_NAMES, curves):
            if curve is None:
                continue
            curve.slice_description = f"quartile={name}" + (
                f", action={action}" if action is not None else ""
            )
            out[name] = curve
        return out

    def curves_by_period(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
        user_class: Union[str, UserClass, None] = None,
    ) -> Dict[str, PreferenceResult]:
        """Figure 7: one curve per six-hour local-time period.

        Within a single period the hour-of-day α correction still applies
        across the period's hours.
        """
        curves = self._sweep(
            [
                (logs, {"action": action, "user_class": user_class, "period": period})
                for period in ALL_DAY_PERIODS
            ]
        )
        return {
            period.value: curve
            for period, curve in zip(ALL_DAY_PERIODS, curves)
            if curve is not None
        }

    def curves_by_month(
        self,
        logs: LogStore,
        action: Union[str, ActionType, None] = None,
        months: Optional[List[int]] = None,
        days_per_month: int = 30,
    ) -> Dict[int, PreferenceResult]:
        """Figure 9: one curve per synthetic month."""
        if months is None:
            from repro.telemetry import timeutil

            months = sorted(
                int(m) for m in np.unique(timeutil.month_index(logs.times, days_per_month))
            )
        curves = self._sweep(
            [
                (logs, {"action": action, "month": m, "days_per_month": days_per_month})
                for m in months
            ]
        )
        return {m: c for m, c in zip(months, curves) if c is not None}

    # -- diagnostics --------------------------------------------------------------

    def locality(self, logs: LogStore) -> LocalityComparison:
        """Figure 1: the MSD/MAD locality comparison."""
        return locality_report(logs, rng=self._rng.child("locality"))

    def density_series(
        self, logs: LogStore, window_seconds: float = 60.0
    ) -> DensityLatencySeries:
        """Figure 2: windowed activity-vs-latency series."""
        return density_latency_series(logs, window_seconds=window_seconds)

    def alpha_profile(
        self,
        logs: LogStore,
        scheme: str = "period",
        reference_slot: Optional[int] = None,
        action: Union[str, ActionType, None] = None,
        user_class: Union[str, UserClass, None] = None,
    ) -> AlphaEstimate:
        """Figure 8: the α estimate itself (defaults to the 4-period scheme,
        reference slot 0 = the 8am-2pm period)."""
        sliced, _ = self._slice(logs, action, user_class)
        cfg = self.config
        counts = slotted_counts(sliced, cfg.bins(), scheme=scheme)
        if reference_slot is None and scheme == "period":
            reference_slot = 0  # 8am-2pm, as in the paper's Figure 8
        return alpha_from_counts(
            counts,
            reference_slot=reference_slot,
            bin_average=cfg.alpha_bin_average,
            min_bin_count=cfg.alpha_min_bin_count,
        )
