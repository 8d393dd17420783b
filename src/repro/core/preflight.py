"""Pre-flight checks: should you trust AutoSens on this telemetry?

The method has preconditions the paper states but a user can forget:
enough volume, time coverage without long silences, *locally predictable*
latency (the Figure 1 premise), and a latency range wide enough to say
anything about the latencies you care about. :func:`preflight` checks all
of them on a telemetry slice and returns actionable recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import EmptyDataError
from repro.core.locality import locality_report
from repro.stats.rng import SeedLike
from repro.telemetry.log_store import LogStore
from repro.telemetry.quality import QualityReport, quality_report


@dataclass
class PreflightReport:
    """Verdict plus the evidence and recommendations behind it."""

    quality: QualityReport
    locality_strength: float
    msd_mad_actual: float
    msd_mad_shuffled: float
    latency_p10_ms: float
    latency_p90_ms: float
    dynamic_range: float
    recommendations: List[str] = field(default_factory=list)

    @property
    def ready(self) -> bool:
        """True when no blocking condition was found."""
        return self.quality.ok and self.locality_strength >= 0.1

    def rows(self) -> List[List]:
        return [
            ["telemetry quality", "ok" if self.quality.ok else "BLOCKING"],
            ["locality strength (0=random, 1=sorted)",
             round(self.locality_strength, 3)],
            ["MSD/MAD actual vs shuffled",
             f"{self.msd_mad_actual:.3f} vs {self.msd_mad_shuffled:.3f}"],
            ["latency P10-P90 (ms)",
             f"{self.latency_p10_ms:.0f} - {self.latency_p90_ms:.0f}"],
            ["dynamic range (P90/P10)", round(self.dynamic_range, 2)],
            ["verdict", "ready" if self.ready else "NOT READY"],
        ]


def preflight(
    logs: LogStore,
    rng: SeedLike = 0,
    min_rows: int = 1000,
) -> PreflightReport:
    """Assess whether a telemetry slice supports AutoSens inference."""
    if logs.is_empty:
        raise EmptyDataError("cannot preflight empty logs")
    quality = quality_report(logs, min_rows=min_rows)
    recommendations: List[str] = []

    successful = logs.successful()
    if len(successful) >= 3:
        comparison = locality_report(successful, rng=rng)
        strength = comparison.locality_strength
        actual, shuffled = comparison.actual, comparison.shuffled
    else:
        strength, actual, shuffled = 0.0, float("nan"), float("nan")

    lat = successful.latencies_ms if len(successful) else logs.latencies_ms
    p10 = float(np.percentile(lat, 10))
    p90 = float(np.percentile(lat, 90))
    dynamic_range = p90 / p10 if p10 > 0 else float("inf")

    if not quality.ok:
        recommendations.append(
            "fix the blocking data-quality issues first (see quality flags)")
    if strength < 0.1:
        recommendations.append(
            "latency shows almost no temporal locality; users cannot act on "
            "it and B/U will be flat regardless of true preference — "
            "AutoSens is not applicable to this slice")
    elif strength < 0.25:
        recommendations.append(
            "temporal locality is weak; expect attenuated curves and use "
            "wide confidence bands (nlp_confidence_band)")
    if dynamic_range < 1.5:
        recommendations.append(
            "experienced latency spans a narrow range "
            f"(P90/P10 = {dynamic_range:.2f}); the curve will only be "
            "identified over that range — consider pooling more data or a "
            "slice that saw more varied conditions")
    if quality.span_days >= 10.0:
        recommendations.append(
            "the window spans multiple weeks; prefer "
            "slot_scheme='hour-of-week' to absorb weekly seasonality")
    if not recommendations:
        recommendations.append("no concerns; defaults are appropriate")

    return PreflightReport(
        quality=quality,
        locality_strength=float(strength),
        msd_mad_actual=float(actual),
        msd_mad_shuffled=float(shuffled),
        latency_p10_ms=p10,
        latency_p90_ms=p90,
        dynamic_range=float(dynamic_range),
        recommendations=recommendations,
    )
