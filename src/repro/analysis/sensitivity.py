"""Sensitivity suite: estimator robustness under degraded telemetry.

The recovery gates (:mod:`repro.analysis.recovery`) ask a binary question
about incident regimes. This module asks the *graded* one: how fast does
the NLP estimate drift as real-world telemetry pathologies are dialed up —
irregular diurnal-tied sampling, informative (MNAR) missingness, heavy-user
skew, and reduced probing (event/user/time subsampling) — and is every
drift **loud**?

This module is the fixture table and the frontier format; the harness,
and the verdict rule (``robust`` / ``degraded-explained`` /
``silent-bias``), is :mod:`repro.analysis.paired`. Each fixture is a
ladder of ``degrade`` or ``subsample`` perturbations, one cell per level,
all against ONE clean twin per suite. A fixture's **frontier artifact**
holds per-level NLP bias (L∞ and signed area), a CI-band-inflation proxy
and paired probe verdicts. Instrumentation — wall seconds and span counts
per cell — goes to an ungated ``timings.json`` sidecar, so frontiers are
byte-identical across backends and a tracing change never moves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.paired import (
    PAIRED_SCALES,
    VERDICT_EXPLAINED,
    VERDICT_SILENT_BIAS,
    Perturbation,
    bias_metrics,
    resolve_fixture,
    run_paired,
    suite_summary,
    write_artifacts,
)
from repro.core import SubsamplePolicy
from repro.core.result import PreferenceResult
from repro.errors import ConfigError
from repro.obs import _schema
from repro.obs.probes import PAIRED_MARGINS, SEVERITIES
from repro.parallel import task_seeds
from repro.workload.degradations import DEGRADATION_BUILDERS, DegradationPlan

__all__ = [
    "SensitivityFixture",
    "SensitivityOutcome",
    "SENSITIVITY_FIXTURES",
    "SENSITIVITY_SCALES",
    "DEFAULT_SENSITIVITY_NAMES",
    "run_sensitivity",
    "run_sensitivity_suite",
    "load_frontier",
]

SENSITIVITY_SCHEMA = "autosens.sensitivity/v1"

#: Workload sizes per scale: (duration_days, n_users, candidates_per_user_day).
SENSITIVITY_SCALES: Dict[str, Tuple[float, int, float]] = {
    scale: PAIRED_SCALES[scale] for scale in ("smoke", "full")
}

VERDICT_ROBUST = "robust"

#: Every verdict a frontier cell can carry.
SENSITIVITY_VERDICTS = (VERDICT_ROBUST, VERDICT_EXPLAINED, VERDICT_SILENT_BIAS)

#: Fields every frontier cell carries.
CELL_FIELDS = ("level", "verdict", "gate_passed", "n_actions", "bias_linf",
               "bias_signed_area", "ci_band_inflation", "n_compared_bins",
               "health")

_SUBSAMPLE_AXES = ("event", "user", "time")

#: Outcome fields kept out of the gated frontier: the curves, and runtime
#: provenance and instrumentation, which are not science.
_UNGATED = ("executor", "clean_curve", "cell_curves", "timings")


@dataclass(frozen=True)
class SensitivityFixture:
    """One degradation operator and the level ladder to sweep it over."""

    name: str
    description: str
    #: ``"degrade"`` (post-hoc LogStore operator) or ``"subsample"``
    #: (in-engine :class:`~repro.core.SubsamplePolicy`).
    kind: str
    #: For ``degrade``: a :data:`~repro.workload.degradations.DEGRADATION_BUILDERS`
    #: key. For ``subsample``: the axis (``event``/``user``/``time``).
    operator: str
    #: Degradation levels in [0, 1] (``degrade``) or kept fractions in
    #: (0, 1] (``subsample``). One frontier cell per level.
    levels: Tuple[float, ...]
    #: Max |NLP_cell - NLP_clean| a cell may show and still be robust.
    tolerance: float = 0.08
    #: Compare only bins up to here — beyond it both curves are tail-sparse.
    compare_max_ms: float = 1200.0
    #: Whether the default suite sweep includes this fixture. The
    #: deliberately-silent demo fixture is excluded so the default gate
    #: stays green while CI can still invoke it by name to prove the gate
    #: goes red.
    in_default: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("degrade", "subsample"):
            raise ConfigError(
                f"kind must be 'degrade' or 'subsample', got {self.kind!r}")
        if self.kind == "degrade" and self.operator not in DEGRADATION_BUILDERS:
            raise ConfigError(
                f"unknown degradation operator {self.operator!r}; "
                f"expected one of {sorted(DEGRADATION_BUILDERS)}")
        if self.kind == "subsample" and self.operator not in _SUBSAMPLE_AXES:
            raise ConfigError(
                f"unknown subsample axis {self.operator!r}; "
                f"expected one of {_SUBSAMPLE_AXES}")
        if not self.levels:
            raise ConfigError(f"fixture {self.name!r} has no levels")

    def subsample_policy(self, level: float) -> SubsamplePolicy:
        return SubsamplePolicy(**{f"{self.operator}_fraction": level})


#: The default frontier matrix: every operator family across a level
#: ladder, plus the named silent-bias demo (``in_default=False``).
SENSITIVITY_FIXTURES: Dict[str, SensitivityFixture] = {
    fixture.name: fixture
    for fixture in (
        SensitivityFixture(
            name="diurnal-thinning",
            description="collector sheds load at the diurnal peak",
            kind="degrade", operator="diurnal-thinning",
            levels=(0.3, 0.6, 0.9),
        ),
        SensitivityFixture(
            name="mnar-latency",
            description="slow requests drop out of the logging path (MNAR)",
            kind="degrade", operator="mnar-latency",
            levels=(0.25, 0.5, 0.75),
        ),
        SensitivityFixture(
            name="user-skew-mild",
            description=(
                "heavy users moderately over-represented; duplication "
                "preserves every row, so the drift stays inside the "
                "smoke-scale noise envelope — the committed robust class"),
            kind="degrade", operator="user-skew",
            levels=(0.25, 0.5),
            tolerance=0.20,
        ),
        SensitivityFixture(
            name="subsample-events",
            description="uniform probe subsampling (keep a fraction of events)",
            kind="subsample", operator="event",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="subsample-users",
            description="per-device sampling flags (keep whole users)",
            kind="subsample", operator="user",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="subsample-time",
            description="collector off for whole time windows",
            kind="subsample", operator="time",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="user-skew-heavy",
            description=(
                "strong heavy-user duplication: the committed silent-bias "
                "demonstration (no regime or missingness fingerprint)"),
            kind="degrade", operator="user-skew",
            levels=(1.0,),
            in_default=False,
        ),
    )
}

#: Fixture names the no-argument suite (and CI's green gate) sweeps.
DEFAULT_SENSITIVITY_NAMES: Tuple[str, ...] = tuple(
    name for name, f in sorted(SENSITIVITY_FIXTURES.items()) if f.in_default
)


@dataclass
class SensitivityOutcome:
    """One fixture's frontier: a verdict-graded bias-vs-cost ladder."""

    fixture: str
    description: str
    kind: str
    operator: str
    tolerance: float
    compare_max_ms: float
    seed: int
    scale: str
    scenario: str
    executor: str
    clean: Dict[str, Any]
    cells: List[Dict[str, Any]]
    clean_curve: PreferenceResult
    cell_curves: Dict[float, Optional[PreferenceResult]]
    #: Wall seconds and span counts per cell (and the clean twin) — *not*
    #: part of the frontier artifact; written to the ungated timings
    #: sidecar only.
    timings: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def gate_passed(self) -> bool:
        """The CI contract: no cell may be silently biased."""
        return all(c["verdict"] != VERDICT_SILENT_BIAS for c in self.cells)

    def to_dict(self) -> Dict[str, Any]:
        """The frontier artifact: every gated field, plus the margins."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _UNGATED}
        out.update(schema=SENSITIVITY_SCHEMA, margins=dict(PAIRED_MARGINS),
                   gate_passed=self.gate_passed)
        return out


def _perturbations(fixture: SensitivityFixture, seed: int) -> List[Perturbation]:
    """One perturbation per level of the fixture's ladder."""
    # One degradation-plan seed per fixture, derived purely from the suite
    # seed and the fixture name: every level of the ladder shares the same
    # per-row draws (monotone nesting), adding a fixture never moves
    # another's draws, and the engine seed stays the suite seed so each
    # cell is the clean run's true twin.
    plan_seed = task_seeds(seed, f"sensitivity/{fixture.name}", 1)[0]
    return [
        Perturbation(
            key=f"{fixture.name}:{i}", kind=fixture.kind,
            plan=(DegradationPlan(
                specs=(DEGRADATION_BUILDERS[fixture.operator](level),),
                seed=plan_seed)
                if fixture.kind == "degrade"
                else fixture.subsample_policy(level)),
            tolerance=fixture.tolerance, compare_max_ms=fixture.compare_max_ms,
        )
        for i, level in enumerate(fixture.levels)
    ]


def run_sensitivity(
    fixture: Union[str, SensitivityFixture],
    scenario: str = "owa-queue",
    seed: int = 7,
    scale: str = "smoke",
    executor: str = "serial",
) -> SensitivityOutcome:
    """Run one fixture's full level ladder end to end.

    Generates the clean workload once, then estimates the clean twin and
    every degraded cell from the same realized telemetry and the same
    engine seed.
    """
    (outcome,) = run_sensitivity_suite(
        [fixture], scenario, seed, scale, executor).values()
    return outcome


def run_sensitivity_suite(
    names: Optional[Sequence[Union[str, SensitivityFixture]]] = None,
    scenario: str = "owa-queue",
    seed: int = 7,
    scale: str = "smoke",
    executor: str = "serial",
    out_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, SensitivityOutcome]:
    """Run a fixture matrix over ONE shared clean twin; write artifacts.

    ``out_dir`` receives, per fixture, the frontier
    (``<name>.frontier.json`` — ``obs diff`` sniffs it as a sensitivity
    artifact), plus ``summary.json`` for the matrix and a ``timings.json``
    sidecar holding each cell's wall seconds (the only non-deterministic
    quantity) and span counts (instrumentation), both kept out of every
    gated artifact.
    """
    fixtures = [resolve_fixture(SENSITIVITY_FIXTURES, name, "sensitivity")
                for name in (names or DEFAULT_SENSITIVITY_NAMES)]
    clean, cells = run_paired(
        [p for f in fixtures for p in _perturbations(f, seed)],
        scenario=scenario, scale=scale, scales=SENSITIVITY_SCALES, seed=seed,
        executor=executor, suite="sensitivity", within_label=VERDICT_ROBUST,
    )
    outcomes: Dict[str, SensitivityOutcome] = {}
    remaining = iter(cells)
    for fixture in fixtures:
        ladder = [next(remaining) for _ in fixture.levels]
        outcomes[fixture.name] = SensitivityOutcome(
            fixture=fixture.name, description=fixture.description,
            kind=fixture.kind, operator=fixture.operator,
            tolerance=fixture.tolerance, compare_max_ms=fixture.compare_max_ms,
            seed=seed, scale=scale, scenario=scenario, executor=executor,
            clean={"n_actions": clean.n_actions, "health": clean.health},
            cells=[{
                "level": float(level),
                "verdict": cell.verdict,
                "gate_passed": cell.verdict != VERDICT_SILENT_BIAS,
                "n_actions": cell.n_actions,
                "error": cell.error,
                "health": cell.health,
                "probes": cell.probes,
                **bias_metrics(cell.curve, clean.curve, fixture.compare_max_ms),
            } for level, cell in zip(fixture.levels, ladder)],
            clean_curve=clean.curve,
            cell_curves={level: cell.curve
                         for level, cell in zip(fixture.levels, ladder)},
            timings={
                key: {"wall_seconds": round(twin.wall_seconds, 6),
                      "span_counts": twin.span_counts}
                for key, twin in [("clean", clean)] + [
                    (f"level_{level:g}", cell)
                    for level, cell in zip(fixture.levels, ladder)]},
        )
    if out_dir is not None:
        artifacts: Dict[str, Any] = {
            f"{name}.frontier.json": o.to_dict() for name, o in outcomes.items()
        }
        artifacts["summary.json"] = suite_summary(
            outcomes, lambda o: {
                "gate_passed": o.gate_passed,
                "cells": {f"{c['level']:g}": c["verdict"] for c in o.cells}},
            schema=SENSITIVITY_SCHEMA, scenario=scenario, seed=seed,
            scale=scale)
        artifacts["timings.json"] = {
            "executor": executor,
            **{name: dict(o.timings) for name, o in outcomes.items()},
        }
        write_artifacts(out_dir, artifacts)
    return outcomes


def _bad_health_summary(health: Any) -> bool:
    """A twin's health summary needs a known verdict and counts."""
    if health is None:
        return False
    counts = health.get("counts") if isinstance(health, dict) else None
    return not isinstance(counts, dict) or \
        health.get("verdict") not in SEVERITIES or \
        not all(_schema.is_count(counts.get(k)) for k in SEVERITIES)


def load_frontier(source: Any) -> Dict[str, Any]:
    """Read a frontier artifact back (a path or a parsed payload),
    validating on read: a fixture, a clean twin, cells with every
    :data:`CELL_FIELDS`, a known verdict, a level in [0, 1] and a
    ``gate_passed`` that agrees with the verdict, and a frontier
    ``gate_passed`` that agrees with its cells."""
    payload, where, errors = _schema.read_object(source, "frontier",
                                                 SENSITIVITY_SCHEMA)
    clean, cells = payload.get("clean"), payload.get("cells")
    if not payload.get("fixture") or not isinstance(clean, dict) or \
            not _schema.is_count(clean.get("n_actions")) or \
            _bad_health_summary(clean.get("health")):
        errors.append(f"{where}: fixture name or clean twin missing")
    if not isinstance(cells, list) or not cells:
        _schema.raise_if(errors + [f"{where}: cells missing or empty"])
    gates = []
    for i, cell in enumerate(cells):
        absent = _schema.missing(cell, CELL_FIELDS)
        if absent or cell["verdict"] not in SENSITIVITY_VERDICTS:
            errors.append(f"{where}: cell {i} lacks fields {absent} or a "
                          f"known verdict")
            continue
        verdict, gate, level = (cell[k] for k in
                                ("verdict", "gate_passed", "level"))
        gates.append(bool(gate))
        if bool(gate) != (verdict != VERDICT_SILENT_BIAS):
            errors.append(f"{where}: cell {i} gate_passed {gate!r} "
                          f"disagrees with its verdict {verdict!r}")
        if not _schema.is_number(level) or not 0.0 <= level <= 1.0 or \
                _bad_health_summary(cell["health"]):
            errors.append(f"{where}: cell {i} has a bad level or health")
    if gates and bool(payload.get("gate_passed")) != all(gates):
        errors.append(f"{where}: frontier gate_passed disagrees with its "
                      f"cells")
    _schema.raise_if(errors)
    return payload
