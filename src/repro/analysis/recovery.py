"""Ground-truth recovery gates for the incident scenario library.

For every incident scenario, the pipeline over incident-contaminated
telemetry must either **recover** the incident-free curve of the same seed
within tolerance, or **degrade loudly** — health warnings, degradations or
the paired ``probe_latency_regime`` comparison against the clean twin flag
the run, so ``autosens doctor`` flags it. Drifting beyond tolerance with a
clean bill of health is **silent bias**, and fails the chaos CI gate.

This module is the fixture table and the ``.recovery.json`` format. The
harness is :mod:`repro.analysis.paired`: each fixture is one ``incident``
perturbation of ONE clean twin per suite. Outcomes are byte-identical
across serial and process executors, and curves are written as
``obs diff``-compatible JSONs so CI can gate on drift against baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.paired import (
    PAIRED_SCALES,
    VERDICT_SILENT_BIAS,
    Perturbation,
    resolve_fixture,
    resolve_scenario,
    run_paired,
    suite_summary,
    write_artifacts,
)
from repro.core.result import PreferenceResult
from repro.errors import InsufficientDataError
from repro.workload.incidents import (
    AutoscaleStep,
    IncidentPlan,
    IncidentSpec,
    LoadSpike,
    RegionalDegradation,
    RetryStorm,
    SlowDependency,
)
from repro.workload.scenarios import Scenario

__all__ = [
    "RecoveryFixture",
    "RecoveryOutcome",
    "RECOVERY_FIXTURES",
    "RECOVERY_SCALES",
    "run_recovery",
    "run_recovery_suite",
]

RECOVERY_SCHEMA = "autosens.recovery/v1"

#: Workload sizes per scale: (duration_days, n_users, candidates_per_user_day).
RECOVERY_SCALES: Dict[str, Tuple[float, int, float]] = {
    scale: PAIRED_SCALES[scale] for scale in ("small", "full")
}

VERDICT_RECOVERED = "recovered"


@dataclass(frozen=True)
class RecoveryFixture:
    """One incident regime plus the recovery tolerance it must meet."""

    name: str
    description: str
    specs: Tuple[IncidentSpec, ...]
    #: Max |NLP_incident - NLP_clean| over the compared support.
    tolerance: float = 0.08
    #: Compare only bins up to here — beyond it both curves are tail-sparse.
    compare_max_ms: float = 1200.0

    def scenario(
        self, seed: Optional[int], scale: str, with_incidents: bool
    ) -> Scenario:
        """The clean or incident-contaminated workload at ``scale``."""
        base = resolve_scenario("owa-queue", scale, RECOVERY_SCALES,
                                "recovery", seed)
        return base.with_incidents(self.plan()) if with_incidents else base

    def plan(self) -> IncidentPlan:
        """The fixture's incidents, on the plan's fixed seed."""
        return IncidentPlan(specs=self.specs, seed=0)


#: The scenario matrix the chaos CI job sweeps: every incident class alone,
#: plus one composed regime (spike + slow dependency overlapping).
RECOVERY_FIXTURES: Dict[str, RecoveryFixture] = {
    fixture.name: fixture
    for fixture in (
        RecoveryFixture(
            name="load-spike",
            description="arrival surge queues requests at the diurnal shoulder",
            specs=(LoadSpike(start_frac=0.35, duration_s=5400.0, peak_mult=2.5),),
        ),
        RecoveryFixture(
            name="slow-dependency",
            description="bimodal service mixture from a degraded downstream",
            specs=(SlowDependency(
                start_frac=0.45, duration_s=7200.0,
                slow_share=0.35, extra_ms=700.0,
            ),),
        ),
        RecoveryFixture(
            name="regional-degradation",
            description="part of the fleet serves slow for three hours",
            specs=(RegionalDegradation(
                start_frac=0.3, duration_s=10800.0,
                service_mult=1.8, region_share=0.4,
            ),),
        ),
        RecoveryFixture(
            name="autoscale-step",
            description="over-eager scale-in removes a server for two hours",
            specs=(AutoscaleStep(
                start_frac=0.5, duration_s=7200.0, server_delta=-1,
            ),),
        ),
        RecoveryFixture(
            name="retry-storm",
            description="load and per-request work inflate together",
            specs=(RetryStorm(
                start_frac=0.4, duration_s=3600.0,
                load_mult=1.7, service_mult=1.25,
            ),),
        ),
        RecoveryFixture(
            name="composite",
            description="load spike overlapping a slow dependency",
            specs=(
                LoadSpike(start_frac=0.3, duration_s=5400.0, peak_mult=2.0),
                SlowDependency(
                    start_frac=0.35, duration_s=7200.0,
                    slow_share=0.25, extra_ms=500.0,
                ),
            ),
        ),
    )
}


@dataclass
class RecoveryOutcome:
    """Everything one fixture run produced, JSON-stable for diffing."""

    fixture: str
    verdict: str
    max_abs_nlp_diff: float
    tolerance: float
    n_compared_bins: int
    seed: int
    scale: str
    executor: str
    incident_windows: List[dict]
    health: Dict[str, Any]
    regime: List[dict]
    clean_n_actions: int
    incident_n_actions: int
    curve: PreferenceResult
    clean_curve: PreferenceResult

    @property
    def gate_passed(self) -> bool:
        """The CI contract: anything but a silent clean-but-biased curve."""
        return self.verdict != VERDICT_SILENT_BIAS

    def to_dict(self) -> Dict[str, Any]:
        """The ``.recovery.json`` artifact: every field but the curves."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if not f.name.endswith("curve")}
        out.update(schema=RECOVERY_SCHEMA, gate_passed=self.gate_passed,
                   max_abs_nlp_diff=round(float(self.max_abs_nlp_diff), 6))
        return out


def run_recovery(
    fixture: Union[str, RecoveryFixture],
    seed: int = 7,
    scale: str = "small",
    executor: str = "serial",
) -> RecoveryOutcome:
    """Run one recovery fixture end to end and classify the outcome.

    Generates the incident-free and incident-contaminated workloads on the
    *same seed* (identical population, candidate streams and engine
    randomness — the only difference is the latency regime), estimates
    both NLP curves, and compares them on their common support.
    """
    (outcome,) = run_recovery_suite([fixture], seed, scale, executor).values()
    return outcome


def run_recovery_suite(
    names: Optional[Sequence[Union[str, RecoveryFixture]]] = None,
    seed: int = 7,
    scale: str = "small",
    executor: str = "serial",
    out_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, RecoveryOutcome]:
    """Run a fixture matrix; optionally write diffable artifacts.

    ``out_dir`` receives, per fixture, the incident-run curve
    (``<name>.curve.json`` — ``obs diff`` sniffs it as a curve artifact)
    and the recovery verdict (``<name>.recovery.json``), plus a
    ``summary.json`` for the whole matrix.
    """
    fixtures = [resolve_fixture(RECOVERY_FIXTURES, name, "recovery")
                for name in (names or sorted(RECOVERY_FIXTURES))]
    clean, cells = run_paired(
        [Perturbation(key=f.name, kind="incident", plan=f.plan(),
                      tolerance=f.tolerance, compare_max_ms=f.compare_max_ms)
         for f in fixtures],
        scenario="owa-queue", scale=scale, scales=RECOVERY_SCALES, seed=seed,
        executor=executor, suite="recovery", within_label=VERDICT_RECOVERED,
    )
    outcomes: Dict[str, RecoveryOutcome] = {}
    for fixture, cell in zip(fixtures, cells):
        if cell.curve is None:
            raise InsufficientDataError(
                f"incident twin for fixture {fixture.name!r} produced no "
                f"curve: {cell.error}")
        outcomes[fixture.name] = RecoveryOutcome(
            fixture=fixture.name, verdict=cell.verdict,
            max_abs_nlp_diff=cell.distance, tolerance=fixture.tolerance,
            n_compared_bins=cell.n_compared, seed=seed, scale=scale,
            executor=executor, incident_windows=cell.incident_windows,
            health=cell.health, regime=cell.probes,
            clean_n_actions=clean.n_actions, incident_n_actions=cell.n_actions,
            curve=cell.curve, clean_curve=clean.curve,
        )
    if out_dir is not None:
        artifacts: Dict[str, Any] = {}
        for name, o in outcomes.items():
            artifacts[f"{name}.curve.json"] = o.curve
            artifacts[f"{name}.recovery.json"] = o.to_dict()
        artifacts["summary.json"] = suite_summary(
            outcomes, lambda o: {
                "verdict": o.verdict, "gate_passed": o.gate_passed,
                "max_abs_nlp_diff": round(float(o.max_abs_nlp_diff), 6)},
            schema=RECOVERY_SCHEMA, seed=seed, scale=scale, executor=executor)
        write_artifacts(out_dir, artifacts)
    return outcomes
