"""Estimator-health probes: statistical diagnostics as structured findings.

PR 3 made the pipeline *observable* (spans, counters, manifests); this
module makes the *science* observable. Each probe inspects one stage's
statistical intermediates — B/U bin occupancy, U-coverage of the B support,
α per-slot dispersion, smoothing-window edge effects, the paper's locality
diagnostics (MSD/MAD, density–latency anti-correlation) — and returns
:class:`HealthFinding` records with an ``ok``/``warn``/``fail`` severity.

Design rules, enforced by ``tests/obs/test_probes.py``:

- **Probes never raise.** Degenerate inputs (empty bins, a single slot, a
  constant-latency series where MSD/MAD is undefined) produce ``warn`` or
  ``fail`` findings, not exceptions — a diagnostics layer that crashes the
  run it is diagnosing is worse than none.
- **Probes are pure.** They take plain arrays/floats and return findings;
  they import nothing from :mod:`repro.core`, so the core pipeline can
  import them without cycles.
- **Probes are cheap.** Every probe is O(n_bins) or O(n_slots); call sites
  gate on the active context's ``enabled`` flag so a non-observed run pays
  one attribute load.

Emitted findings accumulate on the active
:class:`~repro.obs._runtime.ObsContext` (see :func:`emit`) and are composed
into a :class:`~repro.obs.health.HealthReport` at the end of the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

__all__ = [
    "HealthFinding",
    "SEVERITIES",
    "emit",
    "row_major",
    "probe_bin_occupancy",
    "probe_u_coverage",
    "probe_alpha_dispersion",
    "probe_slot_support",
    "probe_latency_regime",
    "probe_missingness",
    "PAIRED_MARGINS",
    "probe_smoothing_edges",
    "probe_locality",
    "probe_density_correlation",
]

#: Severities in increasing badness; :mod:`repro.obs.health` folds a run's
#: findings to the worst one.
SEVERITIES = ("ok", "warn", "fail")


@dataclass(frozen=True)
class HealthFinding:
    """One probe observation: a value, a threshold, and a severity.

    ``ok`` findings are recorded too — a health report that only lists
    problems cannot show *how far* a healthy run sits from its thresholds.
    """

    probe: str
    stage: str
    severity: str
    message: str
    value: Optional[float] = None
    threshold: Optional[float] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "probe": self.probe,
            "stage": self.stage,
            "severity": self.severity,
            "message": self.message,
        }
        if self.value is not None:
            out["value"] = round(float(self.value), 6)
        if self.threshold is not None:
            out["threshold"] = float(self.threshold)
        if self.context:
            out["context"] = {k: _json_safe(v) for k, v in self.context.items()}
        return out


def _json_safe(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return str(value)


def _finite(x: Any, default: float = float("nan")) -> float:
    """A plain float, NaN-safe (probes never trust their inputs)."""
    try:
        v = float(x)
    except (TypeError, ValueError):
        return default
    return v


#: Findings held by the innermost :func:`row_major` block, by row.
_HELD: ContextVar[Optional[Dict[int, List[HealthFinding]]]] = ContextVar(
    "repro_probe_rows", default=None)


def emit(findings: Iterable[HealthFinding], row: Optional[int] = None) -> None:
    """Record findings on the active observability context (no-op when off).

    Each finding is appended to the context and counted in
    ``autosens_health_findings_total``. Findings of one ``row`` of a
    stacked computation are held until the enclosing :func:`row_major`
    block ends; outside such a block ``row`` changes nothing.
    """
    from repro.obs import _runtime

    ctx = _runtime.current()
    if not ctx.enabled:
        return
    held = _HELD.get()
    if row is not None and held is not None:
        held.setdefault(row, []).extend(findings)
        return
    for finding in findings:
        ctx.findings.append(finding.to_dict())
        ctx.metrics.inc("autosens_health_findings_total", 1.0,
                        stage=finding.stage, severity=finding.severity)


@contextmanager
def row_major() -> Iterator[None]:
    """Emit the per-row findings of a stacked computation row by row.

    A stacked pass runs each stage once for all rows, so its stages emit
    stage-major (every row's α finding, then every row's B/U findings).
    Inside this block findings emitted with a ``row`` are held and, when
    the block ends (also by an exception), emitted in row order: the
    order one pass per row would have given.
    """
    held: Dict[int, List[HealthFinding]] = {}
    token = _HELD.set(held)
    try:
        yield
    finally:
        _HELD.reset(token)
        for row in sorted(held):
            emit(held[row])


# ---------------------------------------------------------------------------
# Distribution probes (B/U histograms, paper Section 2.2/2.3).
# ---------------------------------------------------------------------------


def probe_bin_occupancy(
    biased_counts: np.ndarray,
    unbiased_counts: np.ndarray,
    min_unbiased_count: float,
    slice_description: str = "",
    min_stable_share: float = 0.02,
    min_unbiased_total: float = 400.0,
) -> List[HealthFinding]:
    """B/U bin occupancy and the total mass of U.

    A preference curve is only defined on bins where U has at least
    ``min_unbiased_count`` mass; this probe reports how much of the grid
    that is, and how much mass U carries in total. An all-empty U is a
    ``fail`` (no curve can exist); a sliver of stable bins or a tiny U is
    a ``warn``.
    """
    b = np.nan_to_num(np.asarray(biased_counts, dtype=float), nan=0.0)
    u = np.nan_to_num(np.asarray(unbiased_counts, dtype=float), nan=0.0)
    n_bins = int(u.size)
    context: Dict[str, Any] = {"slice": slice_description, "n_bins": n_bins}
    if n_bins == 0 or not np.any(u > 0):
        return [HealthFinding(
            probe="bin_occupancy", stage="preference", severity="fail",
            message="unbiased distribution is empty; no latency bin is usable",
            value=0.0, threshold=min_stable_share, context=context,
        )]
    stable = u >= float(min_unbiased_count)
    stable_share = float(stable.mean())
    u_total = float(u.sum())
    # Effective sample size of the (possibly weighted) biased histogram:
    # (Σw)² / Σw² — equals the raw count for unit weights, shrinks when the
    # α normalization concentrates weight on few bins.
    b_sq = float(np.square(b).sum())
    ess_b = (float(b.sum()) ** 2 / b_sq) if b_sq > 0 else 0.0
    context.update({
        "n_stable_bins": int(stable.sum()),
        "unbiased_total": round(u_total, 3),
        "biased_ess_bins": round(ess_b, 3),
    })
    findings: List[HealthFinding] = []
    if not np.any(stable):
        findings.append(HealthFinding(
            probe="bin_occupancy", stage="preference", severity="fail",
            message=(
                "no latency bin reaches the minimum unbiased count "
                f"({min_unbiased_count:g}); the curve has no support"),
            value=stable_share, threshold=min_stable_share, context=context,
        ))
        return findings
    severity = "warn" if stable_share < min_stable_share else "ok"
    findings.append(HealthFinding(
        probe="bin_occupancy", stage="preference", severity=severity,
        message=(
            f"{int(stable.sum())}/{n_bins} bins stable "
            f"(share {stable_share:.3f})"),
        value=stable_share, threshold=min_stable_share, context=context,
    ))
    findings.append(HealthFinding(
        probe="unbiased_sample_size", stage="preference",
        severity="warn" if u_total < min_unbiased_total else "ok",
        message=f"unbiased draw holds {u_total:.0f} samples",
        value=u_total, threshold=min_unbiased_total,
        context={"slice": slice_description},
    ))
    return findings


def probe_u_coverage(
    biased_counts: np.ndarray,
    unbiased_counts: np.ndarray,
    min_unbiased_count: float,
    slice_description: str = "",
    warn_share: float = 0.75,
    fail_share: float = 0.40,
) -> List[HealthFinding]:
    """How much of the *biased mass* sits on bins where U is stable.

    B mass on U-starved bins is invisible to the curve: the ratio B/U is
    undefined there. A low covered share means the answer silently ignores
    a large part of what users actually experienced.
    """
    b = np.nan_to_num(np.asarray(biased_counts, dtype=float), nan=0.0)
    u = np.nan_to_num(np.asarray(unbiased_counts, dtype=float), nan=0.0)
    b_total = float(b.sum())
    context: Dict[str, Any] = {"slice": slice_description}
    if b_total <= 0 or b.size == 0:
        return [HealthFinding(
            probe="u_coverage", stage="preference", severity="fail",
            message="biased distribution is empty",
            value=0.0, threshold=fail_share, context=context,
        )]
    stable = u >= float(min_unbiased_count)
    covered = float(b[stable].sum() / b_total)
    if covered < fail_share:
        severity, threshold = "fail", fail_share
    elif covered < warn_share:
        severity, threshold = "warn", warn_share
    else:
        severity, threshold = "ok", warn_share
    context["covered_mass_share"] = round(covered, 4)
    return [HealthFinding(
        probe="u_coverage", stage="preference", severity=severity,
        message=(
            f"{covered:.1%} of biased mass lies on U-stable bins"),
        value=covered, threshold=threshold, context=context,
    )]


# ---------------------------------------------------------------------------
# α probes (paper Section 2.4.1, Figure 8).
# ---------------------------------------------------------------------------


def probe_alpha_dispersion(
    alpha_matrix: np.ndarray,
    alpha_by_slot: np.ndarray,
    reference_slot: int,
    warn_cv: float = 0.80,
    fail_cv: float = 1.60,
    warn_fallback_share: float = 0.50,
) -> List[HealthFinding]:
    """Per-slot dispersion of α across latency bins (the flatness premise).

    The paper's Figure 8 argues α[T, L] is flat across L, which is what
    licenses averaging it into one α[T] per slot. A large mean coefficient
    of variation across bins means the time correction is applying one
    number to a quantity that is *not* one number — the corrected curve is
    then biased in a latency-dependent way.
    """
    matrix = np.asarray(alpha_matrix, dtype=float)
    by_slot = np.asarray(alpha_by_slot, dtype=float)
    n_slots = int(matrix.shape[0]) if matrix.ndim == 2 else 0
    context: Dict[str, Any] = {
        "n_slots": n_slots, "reference_slot": int(reference_slot)}
    if n_slots == 0:
        return [HealthFinding(
            probe="alpha_dispersion", stage="alpha", severity="fail",
            message="alpha matrix is empty; no slots were estimated",
            context=context,
        )]
    cvs: List[float] = []
    n_fallback = 0
    for row in matrix:
        vals = row[np.isfinite(row)]
        if vals.size >= 2 and vals.mean() > 0:
            cvs.append(float(vals.std() / vals.mean()))
        elif vals.size == 0:
            # No overlapping valid bin with the reference: α for this slot
            # came from the total-count fallback, not the per-bin ratios.
            n_fallback += 1
    fallback_share = n_fallback / n_slots
    context["fallback_slot_share"] = round(fallback_share, 4)
    findings: List[HealthFinding] = []
    if not cvs:
        # Small-scale runs routinely have no per-bin overlap; the
        # total-count fallback is exact under flatness, so this is
        # informational — sparse *data* is caught by the occupancy probes.
        findings.append(HealthFinding(
            probe="alpha_dispersion", stage="alpha", severity="ok",
            message=(
                "no slot has >=2 valid bins; alpha flatness not assessable "
                "(slots used the total-count fallback)"),
            value=fallback_share, threshold=warn_fallback_share,
            context=context,
        ))
        return findings
    mean_cv = float(np.mean(cvs))
    if mean_cv > fail_cv:
        severity, threshold = "fail", fail_cv
    elif mean_cv > warn_cv:
        severity, threshold = "warn", warn_cv
    else:
        severity, threshold = "ok", warn_cv
    findings.append(HealthFinding(
        probe="alpha_dispersion", stage="alpha", severity=severity,
        message=(
            f"mean per-slot CV of alpha across bins = {mean_cv:.3f} "
            f"(flatness premise {'holds' if severity == 'ok' else 'is strained'})"),
        value=mean_cv, threshold=threshold, context=context,
    ))
    if cvs and fallback_share > warn_fallback_share:
        findings.append(HealthFinding(
            probe="alpha_fallback", stage="alpha", severity="warn",
            message=(
                f"{n_fallback}/{n_slots} slots fell back to total-count "
                "alpha (no bin overlaps the reference slot)"),
            value=fallback_share, threshold=warn_fallback_share,
            context=context,
        ))
    # Wildly scaled slots (α far from 1 both ways) are informative but not
    # by themselves wrong; surface the spread as an ok-severity value.
    finite = by_slot[np.isfinite(by_slot) & (by_slot > 0)]
    if finite.size:
        spread = float(finite.max() / finite.min())
        findings.append(HealthFinding(
            probe="alpha_spread", stage="alpha", severity="ok",
            message=f"alpha spans {finite.min():.3f}..{finite.max():.3f} "
                    f"across slots (ratio {spread:.2f})",
            value=spread, context={"n_slots": n_slots},
        ))
    return findings


def probe_slot_support(
    n_slots: int,
    n_reference_slots: int,
    n_used_references: int,
    slice_description: str = "",
) -> List[HealthFinding]:
    """Slot coverage of the time correction.

    With one slot the α correction is an identity (nothing to normalize
    against); with fewer surviving reference slots than configured, the
    multi-reference averaging the paper calls for is running thin.
    """
    findings: List[HealthFinding] = []
    context = {"slice": slice_description, "n_slots": int(n_slots)}
    if n_slots <= 1:
        findings.append(HealthFinding(
            probe="slot_support", stage="alpha", severity="warn",
            message=(
                "single-slot run: the time correction is an identity and "
                "cannot mitigate the diurnal confounder"),
            value=float(n_slots), threshold=2.0, context=context,
        ))
    else:
        findings.append(HealthFinding(
            probe="slot_support", stage="alpha", severity="ok",
            message=f"{n_slots} time slots populated",
            value=float(n_slots), threshold=2.0, context=context,
        ))
    if n_used_references < n_reference_slots:
        findings.append(HealthFinding(
            probe="reference_slots", stage="alpha", severity="warn",
            message=(
                f"only {n_used_references} of {n_reference_slots} "
                "configured reference slots were usable"),
            value=float(n_used_references), threshold=float(n_reference_slots),
            context=context,
        ))
    return findings


def _weighted_percentile(
    counts: np.ndarray, centers: np.ndarray, q: float
) -> float:
    """Percentile of a binned distribution (counts over bin centers)."""
    cum = np.cumsum(counts)
    total = cum[-1]
    if total <= 0:
        return float("nan")
    idx = int(np.searchsorted(cum, q / 100.0 * total, side="left"))
    idx = min(idx, centers.size - 1)
    return float(centers[idx])


def probe_latency_regime(
    slot_bin_counts: np.ndarray,
    bin_centers: np.ndarray,
    slice_description: str = "",
    min_slot_count: float = 50.0,
    warn_tail_ratio: float = 12.0,
    fail_tail_ratio: float = 40.0,
    warn_median_spread: float = 8.0,
    fail_median_spread: float = 30.0,
) -> List[HealthFinding]:
    """Regime shift / tail inflation across the per-slot latency bins.

    Incident-contaminated telemetry leaves two fingerprints in the
    (slots x bins) count tensor that the clean diurnal x OU process does
    not produce: (a) some slot's latency distribution grows a heavy upper
    tail (p99/p50 far beyond the lognormal jitter's), and (b) slot medians
    spread far beyond what the diurnal curve explains — a latency *regime*
    differs across slots, exactly the non-stationarity that biases a pooled
    B/U ratio. Both are cheap weighted-percentile reads off the tensor the
    pipeline already has; neither can raise on degenerate input.

    The default thresholds are a coarse tripwire sized for arbitrary
    scenarios (the seeded OU bottleneck scenario legitimately reaches a
    per-slot p99/p50 near 8.3 and a 4.5x median spread, and must stay
    ``ok``).  Callers with a paired clean reference — the recovery
    harness in :mod:`repro.analysis.recovery` — pass much tighter
    thresholds derived from the clean run's own metrics.
    """
    matrix = np.nan_to_num(
        np.atleast_2d(np.asarray(slot_bin_counts, dtype=float)), nan=0.0
    )
    centers = np.asarray(bin_centers, dtype=float)
    context: Dict[str, Any] = {"slice": slice_description}
    if matrix.size == 0 or centers.size == 0 or matrix.shape[1] != centers.size:
        return [HealthFinding(
            probe="latency_regime", stage="regime", severity="warn",
            message=(
                "latency regime not assessable: empty or mismatched "
                "slot/bin tensor"),
            context=context,
        )]
    totals = matrix.sum(axis=1)
    usable = np.flatnonzero(totals >= float(min_slot_count))
    context["n_slots"] = int(matrix.shape[0])
    context["n_usable_slots"] = int(usable.size)
    if usable.size < 2:
        return [HealthFinding(
            probe="latency_regime", stage="regime", severity="ok",
            message=(
                f"latency regime not assessable: {usable.size} slot(s) with "
                f">= {min_slot_count:g} actions"),
            value=float(usable.size), threshold=2.0, context=context,
        )]
    p50 = np.array([
        _weighted_percentile(matrix[i], centers, 50.0) for i in usable
    ])
    p99 = np.array([
        _weighted_percentile(matrix[i], centers, 99.0) for i in usable
    ])
    valid = np.isfinite(p50) & (p50 > 0) & np.isfinite(p99)
    if valid.sum() < 2:
        return [HealthFinding(
            probe="latency_regime", stage="regime", severity="warn",
            message="latency regime not assessable: slot percentiles degenerate",
            context=context,
        )]
    p50, p99 = p50[valid], p99[valid]
    tail_ratios = p99 / p50
    worst_tail = float(tail_ratios.max())
    worst_slot = int(usable[valid][int(np.argmax(tail_ratios))])
    median_spread = float(p50.max() / p50.min())
    findings: List[HealthFinding] = []
    if worst_tail > fail_tail_ratio:
        tail_severity, tail_threshold = "fail", fail_tail_ratio
    elif worst_tail > warn_tail_ratio:
        tail_severity, tail_threshold = "warn", warn_tail_ratio
    else:
        tail_severity, tail_threshold = "ok", warn_tail_ratio
    findings.append(HealthFinding(
        probe="latency_tail_inflation", stage="regime", severity=tail_severity,
        message=(
            f"worst per-slot p99/p50 = {worst_tail:.2f} (slot {worst_slot}"
            f"{'; tail-inflated — possible incident contamination' if tail_severity != 'ok' else ''})"),
        value=worst_tail, threshold=tail_threshold,
        context=dict(context, worst_slot=worst_slot),
    ))
    if median_spread > fail_median_spread:
        shift_severity, shift_threshold = "fail", fail_median_spread
    elif median_spread > warn_median_spread:
        shift_severity, shift_threshold = "warn", warn_median_spread
    else:
        shift_severity, shift_threshold = "ok", warn_median_spread
    findings.append(HealthFinding(
        probe="latency_regime_shift", stage="regime", severity=shift_severity,
        message=(
            f"slot median latencies span a {median_spread:.2f}x range"
            f"{' — beyond diurnal variation; latency regime shifted' if shift_severity != 'ok' else ''}"),
        value=median_spread, threshold=shift_threshold, context=context,
    ))
    return findings


#: Paired-detection margins (:mod:`repro.analysis.paired`): a perturbed
#: run's raw-telemetry regime metrics warn past its clean same-seed twin's
#: own tail ratio x ``tail`` and median spread x ``spread``, and fail at
#: ``*_fail_factor`` times those warn thresholds. Much tighter than the
#: scenario-agnostic defaults of :func:`probe_latency_regime`, because the
#: clean twin *is* the null hypothesis. Frontier artifacts record them.
PAIRED_MARGINS: Dict[str, float] = {
    "tail": 1.35,
    "spread": 1.2,
    "tail_fail_factor": 6.0,
    "spread_fail_factor": 3.0,
}


# ---------------------------------------------------------------------------
# Missingness probes (sensitivity suite: irregular sampling / MNAR).
# ---------------------------------------------------------------------------


def probe_missingness(
    times: np.ndarray,
    latencies_ms: np.ndarray,
    reference_times: Optional[np.ndarray] = None,
    reference_latencies_ms: Optional[np.ndarray] = None,
    n_windows: int = 24,
    warn_drop_share: float = 0.25,
    fail_drop_share: float = 0.60,
    warn_informative_gap: float = 0.05,
    fail_informative_gap: float = 0.25,
    warn_irregularity: float = 0.08,
    fail_irregularity: float = 0.45,
    slice_description: str = "",
) -> List[HealthFinding]:
    """Sampling-completeness fingerprints of a telemetry stream.

    With a paired reference stream (the clean same-seed twin) three
    diagnostics become sharp:

    - **depth** — the overall drop share ``1 - n/n_ref``;
    - **informativeness** — the retention gap between the reference's
      latency bulk (below its p75) and tail (at or above it). MNAR
      dropout keeps fast rows and loses slow ones, so its gap is large;
      latency-blind thinning has a gap near zero.
    - **irregularity** — the coefficient of variation of per-window
      retention over ``n_windows`` equal time windows. Diurnal-tied
      thinning starves some windows and spares others; uniform thinning
      keeps retention flat.

    Without a reference the probe cannot distinguish "thinned" from
    "small" and returns a single ``ok`` not-assessable finding — the
    unpaired fingerprints belong to the occupancy probes.

    The warn thresholds sit a few sigma above the sampling noise of a
    paired ~10k-row stream (retention-estimate noise is ~1-2% per window
    / per latency half): latency-blind uniform thinning measures a gap
    and CV near 0.02, while the mildest committed MNAR and diurnal
    fixtures measure 0.07 and 0.11 — the thresholds split those cleanly.
    """
    t = np.asarray(times, dtype=float)
    lat = np.asarray(latencies_ms, dtype=float)
    context: Dict[str, Any] = {"slice": slice_description, "n": int(t.size)}
    if reference_times is None or reference_latencies_ms is None:
        return [HealthFinding(
            probe="missingness", stage="missingness", severity="ok",
            message=(
                "missingness not assessable without a paired reference "
                "stream"),
            context=context,
        )]
    rt = np.asarray(reference_times, dtype=float)
    rlat = np.asarray(reference_latencies_ms, dtype=float)
    context["n_reference"] = int(rt.size)
    if rt.size == 0:
        return [HealthFinding(
            probe="missingness", stage="missingness", severity="warn",
            message="missingness not assessable: empty reference stream",
            context=context,
        )]
    findings: List[HealthFinding] = []

    def graded(value: float, warn_at: float, fail_at: float) -> tuple:
        if value > fail_at:
            return "fail", fail_at
        if value > warn_at:
            return "warn", warn_at
        return "ok", warn_at

    # (a) depth: overall drop share vs the reference.
    drop_share = float(np.clip(1.0 - t.size / rt.size, 0.0, 1.0))
    severity, threshold = graded(drop_share, warn_drop_share, fail_drop_share)
    findings.append(HealthFinding(
        probe="missingness_depth", stage="missingness", severity=severity,
        message=(
            f"{drop_share:.1%} of the reference stream's rows are missing"),
        value=drop_share, threshold=threshold, context=dict(context),
    ))

    # (b) informativeness: bulk-vs-tail retention gap at the reference p75.
    knee = float(np.percentile(rlat, 75.0)) if rlat.size else float("nan")
    ref_bulk = float((rlat < knee).sum())
    ref_tail = float((rlat >= knee).sum())
    if np.isfinite(knee) and ref_bulk > 0 and ref_tail > 0:
        kept_bulk = float((lat < knee).sum()) / ref_bulk
        kept_tail = float((lat >= knee).sum()) / ref_tail
        # Retention above 1 (duplication) is not *missingness*; clamp so
        # over-represented streams do not alias into an MNAR signal.
        gap = float(np.clip(min(kept_bulk, 1.0) - min(kept_tail, 1.0),
                            0.0, 1.0))
        severity, threshold = graded(
            gap, warn_informative_gap, fail_informative_gap)
        findings.append(HealthFinding(
            probe="missingness_informative", stage="missingness",
            severity=severity,
            message=(
                f"latency-tail retention trails the bulk by {gap:.1%} "
                f"(bulk {min(kept_bulk, 1.0):.1%} vs tail "
                f"{min(kept_tail, 1.0):.1%} at the reference p75"
                f"{'; outcome-dependent (MNAR) dropout' if severity != 'ok' else ''})"),
            value=gap, threshold=threshold,
            context=dict(context, knee_ms=round(knee, 3)),
        ))
    else:
        findings.append(HealthFinding(
            probe="missingness_informative", stage="missingness",
            severity="ok",
            message=(
                "informative missingness not assessable: reference latency "
                "split is degenerate"),
            context=dict(context),
        ))

    # (c) irregularity: CV of per-window retention over the reference span.
    n_win = max(1, int(n_windows))
    t0 = float(rt.min())
    span = max(float(rt.max()) - t0, 1e-9)
    ref_win = np.minimum(((rt - t0) / span * n_win).astype(int), n_win - 1)
    obs_win = np.clip(((t - t0) / span * n_win).astype(int), 0, n_win - 1)
    ref_counts = np.bincount(ref_win, minlength=n_win).astype(float)
    obs_counts = np.bincount(obs_win, minlength=n_win).astype(float)
    # Only windows with enough reference mass to estimate retention.
    min_ref = max(10.0, rt.size / (4.0 * n_win))
    usable = ref_counts >= min_ref
    context["n_usable_windows"] = int(usable.sum())
    if usable.sum() >= 2:
        retention = np.minimum(obs_counts[usable] / ref_counts[usable], 1.0)
        mean_ret = float(retention.mean())
        cv = float(retention.std() / mean_ret) if mean_ret > 0 else float("inf")
        if not np.isfinite(cv):
            cv = fail_irregularity * 2.0
        severity, threshold = graded(cv, warn_irregularity, fail_irregularity)
        findings.append(HealthFinding(
            probe="sampling_irregularity", stage="missingness",
            severity=severity,
            message=(
                f"per-window retention varies with CV {cv:.3f}"
                f"{' — time-dependent (irregular) sampling' if severity != 'ok' else ''}"),
            value=cv, threshold=threshold, context=dict(context),
        ))
    else:
        findings.append(HealthFinding(
            probe="sampling_irregularity", stage="missingness", severity="ok",
            message=(
                "sampling irregularity not assessable: too few populated "
                "reference windows"),
            context=dict(context),
        ))
    return findings


# ---------------------------------------------------------------------------
# Smoothing probes (paper Section 2.3).
# ---------------------------------------------------------------------------


def probe_smoothing_edges(
    stable_mask: np.ndarray,
    smoothing_window: int,
    slice_description: str = "",
) -> List[HealthFinding]:
    """Savitzky–Golay window vs the curve's actual support.

    The filter needs ``window`` contiguous bins to produce an interior
    (non-edge) estimate; a run narrower than half the window means even the
    run's *center* fits under half a window — the smoothed shape is then
    mostly an artifact of the filter's edge extrapolation.
    """
    mask = np.asarray(stable_mask, dtype=bool)
    window = int(smoothing_window)
    half_window = (window + 1) // 2
    context: Dict[str, Any] = {
        "slice": slice_description, "window": window,
        "n_stable_bins": int(mask.sum()),
    }
    if mask.size == 0 or not mask.any():
        return [HealthFinding(
            probe="smoothing_edges", stage="smoothing", severity="fail",
            message="no stable bins; the smoother has nothing to fit",
            value=0.0, threshold=float(half_window), context=context,
        )]
    # Longest run of consecutive stable bins.
    padded = np.concatenate(([0], mask.astype(np.int8), [0]))
    changes = np.flatnonzero(np.diff(padded))
    run_lengths = changes[1::2] - changes[0::2]
    longest = int(run_lengths.max()) if run_lengths.size else 0
    context["longest_stable_run"] = longest
    context["edge_free"] = bool(longest >= window)
    if longest < half_window:
        return [HealthFinding(
            probe="smoothing_edges", stage="smoothing", severity="warn",
            message=(
                f"longest stable run ({longest} bins) is under half the "
                f"smoothing window ({window}); the curve is edge-dominated"),
            value=float(longest), threshold=float(half_window),
            context=context,
        )]
    return [HealthFinding(
        probe="smoothing_edges", stage="smoothing", severity="ok",
        message=(
            f"longest stable run ({longest} bins) supports the smoothing "
            f"window ({window})"),
        value=float(longest), threshold=float(half_window), context=context,
    )]


# ---------------------------------------------------------------------------
# Locality probes (paper Section 2.1, Figures 1 and 2).
# ---------------------------------------------------------------------------


def probe_locality(
    actual: float,
    shuffled: float,
    sorted_ratio: float,
    warn_strength: float = 0.15,
) -> List[HealthFinding]:
    """The MSD/MAD locality premise: latency must be locally predictable.

    ``actual`` well below ``shuffled`` (≈1) is what makes the natural
    experiment possible. A degenerate (constant-latency) series has
    MAD = 0 everywhere, so the three ratios collapse and locality is
    *undefined* — a ``warn``, never an exception.
    """
    actual = _finite(actual)
    shuffled = _finite(shuffled)
    sorted_ratio = _finite(sorted_ratio)
    context = {
        "actual": round(actual, 6) if np.isfinite(actual) else None,
        "shuffled": round(shuffled, 6) if np.isfinite(shuffled) else None,
        "sorted": round(sorted_ratio, 6) if np.isfinite(sorted_ratio) else None,
    }
    if not (np.isfinite(actual) and np.isfinite(shuffled)
            and np.isfinite(sorted_ratio)):
        return [HealthFinding(
            probe="locality_msd_mad", stage="locality", severity="warn",
            message="MSD/MAD comparison contains non-finite ratios",
            context=context,
        )]
    span = shuffled - sorted_ratio
    if span <= 0:
        return [HealthFinding(
            probe="locality_msd_mad", stage="locality", severity="warn",
            message=(
                "degenerate latency series: shuffled and sorted MSD/MAD "
                "coincide (constant or near-constant latencies); locality "
                "is undefined"),
            value=0.0, threshold=warn_strength, context=context,
        )]
    strength = float(np.clip((shuffled - actual) / span, 0.0, 1.0))
    context["strength"] = round(strength, 4)
    if actual >= shuffled:
        return [HealthFinding(
            probe="locality_msd_mad", stage="locality", severity="fail",
            message=(
                f"no locality: actual MSD/MAD ({actual:.3f}) is not below "
                f"the shuffled baseline ({shuffled:.3f}); the natural "
                "experiment premise does not hold"),
            value=strength, threshold=warn_strength, context=context,
        )]
    severity = "warn" if strength < warn_strength else "ok"
    return [HealthFinding(
        probe="locality_msd_mad", stage="locality", severity=severity,
        message=(
            f"locality strength {strength:.3f} "
            f"(actual {actual:.3f} vs shuffled {shuffled:.3f})"),
        value=strength, threshold=warn_strength, context=context,
    )]


def probe_density_correlation(
    correlation: float,
    kind: str = "detrended",
    warn_at: float = 0.0,
) -> List[HealthFinding]:
    """Density–latency anti-correlation (the paper's Figure 2 behaviour).

    Activity should concentrate in low-latency periods: the (detrended)
    correlation of per-window action count against window mean latency
    should be negative. A non-negative value means the latency signal the
    estimator feeds on is absent or swamped by confounders.
    """
    corr = _finite(correlation)
    context = {"kind": kind}
    if not np.isfinite(corr):
        return [HealthFinding(
            probe="density_latency_correlation", stage="locality",
            severity="warn",
            message=(
                f"{kind} density–latency correlation is undefined "
                "(too few non-empty windows or constant series)"),
            context=context,
        )]
    severity = "warn" if corr >= warn_at else "ok"
    return [HealthFinding(
        probe="density_latency_correlation", stage="locality",
        severity=severity,
        message=(
            f"{kind} density–latency correlation = {corr:+.3f} "
            f"({'anti-correlated as expected' if severity == 'ok' else 'no anti-correlation'})"),
        value=corr, threshold=warn_at, context=context,
    )]
