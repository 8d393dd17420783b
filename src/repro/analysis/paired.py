"""Paired-twin harness: one clean run, perturbed twins, one verdict rule.

AutoSens is a natural experiment, and the repo checks it as one: run a
clean same-seed twin, perturb it, and ask whether the NLP curve stayed
within tolerance or a probe said why not. The recovery gates
(:mod:`repro.analysis.recovery`) and the sensitivity frontier
(:mod:`repro.analysis.sensitivity`) are fixture tables over this module.

A fixture expands to :class:`Perturbation` cells, each a perturbation of
the clean run plus a tolerance, of one of three kinds: ``incident``
(re-generate the scenario ``.with_incidents(plan)``), ``degrade`` (apply a
post-hoc :class:`~repro.workload.degradations.DegradationPlan` to the
clean rows) or ``subsample`` (an in-engine
:class:`~repro.core.SubsamplePolicy`). :func:`run_paired` generates the
clean workload once, runs ONE clean engine pass plus every cell over
``executor.map_ordered``, attaches the paired probes the kind calls for,
and grades each cell with :func:`paired_verdict`.

Every run is deterministic and backend bit-identical: generation uses the
explicit-executor path, engine randomness is stream-keyed, degradations
draw from per-spec named streams, and cells are pure payloads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from repro.core.result import PreferenceResult
from repro.errors import ConfigError, EmptyDataError, InsufficientDataError
from repro.obs.health import build_health_report
from repro.obs.probes import PAIRED_MARGINS, probe_latency_regime, probe_missingness
from repro.obs.trace import aggregate_span_timings
from repro.parallel import resolve_executor
from repro.telemetry.log_store import LogStore
from repro.workload.scenarios import SCENARIOS, Scenario

__all__ = [
    "PAIRED_SCALES",
    "VERDICT_EXPLAINED",
    "VERDICT_SILENT_BIAS",
    "Perturbation",
    "PairedCell",
    "paired_regime_findings",
    "paired_missingness_findings",
    "paired_verdict",
    "bias_metrics",
    "resolve_scenario",
    "resolve_fixture",
    "run_paired",
    "suite_summary",
    "write_artifacts",
]

#: Workload sizes per scale: (duration_days, n_users, candidates_per_user_day).
#: ``small`` (the recovery label) and ``smoke`` (the sensitivity label) are
#: one size, proven to yield healthy curves while keeping a 1/8 subsample
#: above ``min_actions``; both labels are written into committed artifacts.
PAIRED_SCALES: Dict[str, Tuple[float, int, float]] = {
    "small": (2.0, 140, 80.0),
    "smoke": (2.0, 140, 80.0),
    "full": (5.0, 300, 100.0),
}

VERDICT_EXPLAINED = "degraded-explained"
VERDICT_SILENT_BIAS = "silent-bias"

_REGIME_EDGES = np.geomspace(20.0, 20000.0, 61)
_REGIME_CENTERS = np.sqrt(_REGIME_EDGES[:-1] * _REGIME_EDGES[1:])


@dataclass(frozen=True)
class Perturbation:
    """One perturbed twin of the clean run and the tolerance it must meet.

    ``plan`` is an :class:`~repro.workload.incidents.IncidentPlan`
    (``incident``), a ``DegradationPlan`` (``degrade``) or a
    ``SubsamplePolicy`` (``subsample``). ``key`` names the cell's run.
    """

    key: str
    kind: str  # "incident", "degrade" or "subsample"
    plan: Any
    #: Max |NLP_twin - NLP_clean| a cell may show and still be within.
    tolerance: float
    #: Compare only bins up to here — beyond it both curves are tail-sparse.
    compare_max_ms: float


@dataclass
class PairedCell:
    """One engine pass over a twin, graded against the clean twin.

    The clean twin is an ungraded cell. ``error`` is ``"<ErrorType>:
    <message>"`` when the engine refused with a typed error (then
    ``curve`` is ``None``); ``wall_seconds`` and ``span_counts`` never
    reach a gated artifact.
    """

    curve: Optional[PreferenceResult]
    error: Optional[str]
    health: Dict[str, Any]
    span_counts: Dict[str, int]
    n_actions: int
    wall_seconds: float
    #: Paired probe findings (regime and/or missingness), as dicts.
    probes: List[dict] = field(default_factory=list)
    #: Max |ΔNLP| on the common support (``inf`` when there is none).
    distance: float = float("inf")
    n_compared: int = 0
    verdict: str = ""
    #: Ground-truth incident windows (``incident`` cells only).
    incident_windows: List[dict] = field(default_factory=list)


def _twin_task(payload: Tuple) -> PairedCell:
    """Top-level (picklable) cell task: one engine pass on one twin.

    A typed refusal (a starved subsample, say) comes back as ``error``,
    never an exception: a refusal is a loud, classifiable outcome.
    """
    logs, seed, subsample, run_id = payload
    start = time.perf_counter()
    # A fresh deterministic context, restored on exit: each cell's
    # findings and span counts are its own, whichever worker runs it.
    with obs.session(enabled=True, deterministic=True, run_id=run_id) as ctx:
        engine = AutoSens(AutoSensConfig(seed=seed), degrade=DegradePolicy(),
                          subsample=subsample)
        curve, error = None, None
        try:
            curve = engine.preference_curve(logs)
        except (InsufficientDataError, EmptyDataError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        report = build_health_report(
            findings=list(ctx.findings), degradations=list(ctx.degradations))
        spans = aggregate_span_timings(ctx.tracer.finished())
    health = {
        "verdict": report.verdict,
        "counts": report.counts(),
        "worst": [
            {k: f.get(k) for k in ("probe", "stage", "severity", "message")}
            for f in report.worst_findings(limit=5)
            if f.get("severity") != "ok"
        ],
    }
    return PairedCell(
        curve=curve, error=error, health=health,
        span_counts={name: info["count"] for name, info in spans.items()},
        n_actions=int(len(logs)), wall_seconds=time.perf_counter() - start,
    )


def _regime_matrix(logs: Any) -> np.ndarray:
    """Hour-of-day x latency-bin counts straight off the raw telemetry.

    Raw latencies keep the incident's full upper tail (the estimator's
    slot/bin tensor clips and reweights it), so the paired comparison sees
    a 10-20x tail-ratio signal where the curve-level one sees 1.1-3x.
    """
    slots = ((np.asarray(logs.times) // 3600.0) % 24).astype(int)
    bins = np.clip(
        np.digitize(np.asarray(logs.latencies_ms), _REGIME_EDGES) - 1,
        0, _REGIME_CENTERS.size - 1,
    )
    matrix = np.zeros((24, _REGIME_CENTERS.size))
    np.add.at(matrix, (slots, bins), 1.0)
    return matrix


def paired_regime_findings(clean_logs: Any, other_logs: Any) -> List[dict]:
    """Regime probe on a run, thresholded by its clean same-seed twin.

    Runs :func:`probe_latency_regime` twice: once on the clean run with
    unreachable thresholds (to read off the baseline tail ratio and median
    spread), then on the other run with warn and fail thresholds at the
    baseline times the :data:`~repro.obs.probes.PAIRED_MARGINS`. Inherits
    the probe's never-raise contract.
    """
    baseline = {
        f.probe: f.value
        for f in probe_latency_regime(
            _regime_matrix(clean_logs), _REGIME_CENTERS,
            slice_description="clean twin",
            warn_tail_ratio=np.inf, fail_tail_ratio=np.inf,
            warn_median_spread=np.inf, fail_median_spread=np.inf,
        )
        if f.value is not None
    }
    tail = baseline.get("latency_tail_inflation")
    spread = baseline.get("latency_regime_shift")
    if tail is None or spread is None:
        # Clean twin itself not assessable — nothing to pair against.
        return [f.to_dict() for f in probe_latency_regime(
            _regime_matrix(other_logs), _REGIME_CENTERS,
            slice_description="paired vs clean (unpaired fallback)",
        )]
    m = PAIRED_MARGINS
    out = []
    for f in probe_latency_regime(
        _regime_matrix(other_logs), _REGIME_CENTERS,
        slice_description="paired vs clean",
        warn_tail_ratio=tail * m["tail"],
        fail_tail_ratio=tail * m["tail"] * m["tail_fail_factor"],
        warn_median_spread=spread * m["spread"],
        fail_median_spread=spread * m["spread"] * m["spread_fail_factor"],
    ):
        d = f.to_dict()
        d["context"]["clean_baseline"] = {
            "latency_tail_inflation": round(float(tail), 6),
            "latency_regime_shift": round(float(spread), 6),
        }
        out.append(d)
    return out


def paired_missingness_findings(clean_logs: LogStore,
                                other_logs: LogStore) -> List[dict]:
    """:func:`probe_missingness` on a run, referenced to its clean twin."""
    return [f.to_dict() for f in probe_missingness(
        other_logs.times, other_logs.latencies_ms,
        reference_times=clean_logs.times,
        reference_latencies_ms=clean_logs.latencies_ms,
        slice_description="paired vs clean",
    )]


#: The paired probes each perturbation kind runs. Subsampling happens
#: inside the engine, so there is nothing post hoc to inspect: its
#: in-engine degradation record (a health warning) is the loud channel.
_PROBES = {
    "incident": (paired_regime_findings,),
    "degrade": (paired_regime_findings, paired_missingness_findings),
    "subsample": (),
}


def _curve_distance(other: Optional[PreferenceResult], clean: PreferenceResult,
                    compare_max_ms: float) -> Tuple[float, int]:
    """Max |ΔNLP| over the bins both curves support up to
    ``compare_max_ms``, and how many there are; ``(inf, 0)`` when there
    are none or the twin refused."""
    if other is None:
        return float("inf"), 0
    mask = other.valid & clean.valid & (other.latencies <= compare_max_ms)
    if not mask.any():
        return float("inf"), 0
    return float(np.abs(other.nlp[mask] - clean.nlp[mask]).max()), int(mask.sum())


def _band_halfwidths(curve: PreferenceResult) -> np.ndarray:
    """Delta-method CI-halfwidth proxy per bin: |nlp| * sqrt(1/B + 1/U).

    Not a bootstrap band (that would re-run the pipeline dozens of times
    per cell); a deterministic count-based proxy whose *ratio* between a
    degraded cell and its clean twin measures variance inflation. Exactly
    1.0 for an identity cell, since twin and cell share every count.
    """
    eps = 1e-9
    b = np.maximum(np.nan_to_num(curve.biased_counts, nan=0.0), eps)
    u = np.maximum(np.nan_to_num(curve.unbiased_counts, nan=0.0), eps)
    return np.abs(np.nan_to_num(curve.nlp, nan=0.0)) * np.sqrt(1.0 / b + 1.0 / u)


def bias_metrics(other: Optional[PreferenceResult], clean: PreferenceResult,
                 compare_max_ms: float) -> Dict[str, Optional[float]]:
    """L∞ / signed-area / band-inflation of a twin vs its clean twin.

    All values are ``None`` (never ``inf`` — artifacts are JSON) when the
    twin refused or the curves share no comparable support.
    """
    linf, n_compared = _curve_distance(other, clean, compare_max_ms)
    if n_compared == 0:
        return {"bias_linf": None, "bias_signed_area": None,
                "ci_band_inflation": None, "n_compared_bins": 0}
    mask = other.valid & clean.valid & (other.latencies <= compare_max_ms)
    diff = other.nlp[mask] - clean.nlp[mask]
    clean_hw = float(_band_halfwidths(clean)[mask].mean())
    inflation = (float(_band_halfwidths(other)[mask].mean()) / clean_hw
                 if clean_hw > 0 else None)
    return {
        "bias_linf": round(linf, 6),
        "bias_signed_area": round(float(diff.sum() * clean.bins.width), 6),
        "ci_band_inflation": (
            round(inflation, 6) if inflation is not None else None),
        "n_compared_bins": n_compared,
    }


def paired_verdict(distance: float, n_compared: int, tolerance: float,
                   probes: Sequence[dict], health: Mapping[str, Any],
                   error: Optional[str], within_label: str) -> str:
    """The one verdict rule: within tolerance, else loud, else silent bias.

    ``within_label`` names the within-tolerance outcome (``recovered`` for
    the recovery gates, ``robust`` for the sensitivity frontier). Loud
    means a paired probe warned or failed, the health report is not clean,
    or the engine refused with a typed error.
    """
    if n_compared > 0 and distance <= tolerance:
        return within_label
    loud = (
        error is not None
        or any(f.get("severity") in ("warn", "fail") for f in probes)
        or health["verdict"] != "ok"
        or health["counts"]["warn"] > 0
    )
    return VERDICT_EXPLAINED if loud else VERDICT_SILENT_BIAS


def resolve_scenario(scenario: str, scale: str, scales: Mapping[str, Tuple],
                     suite: str, seed: Optional[int] = None) -> Scenario:
    """The named scenario at one of the suite's scales (typed errors)."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"expected one of {sorted(SCENARIOS)}")
    if scale not in scales:
        raise ConfigError(f"unknown {suite} scale {scale!r}; "
                          f"expected one of {sorted(scales)}")
    days, users, cpd = scales[scale]
    return SCENARIOS[scenario](seed=seed).scaled(
        duration_days=days, n_users=users, candidates_per_user_day=cpd)


def resolve_fixture(table: Mapping[str, Any], fixture: Any, suite: str) -> Any:
    """A fixture object, looking names up in the suite's table."""
    if isinstance(fixture, str):
        if fixture not in table:
            raise ConfigError(f"unknown {suite} fixture {fixture!r}; "
                              f"expected one of {sorted(table)}")
        return table[fixture]
    return fixture


def run_paired(perturbations: Sequence[Perturbation], *, scenario: str,
               scale: str, scales: Mapping[str, Tuple], seed: int,
               executor: str, suite: str,
               within_label: str) -> Tuple[PairedCell, List[PairedCell]]:
    """Run the clean twin once and every perturbed twin against it.

    Returns the clean twin and one graded cell per perturbation, in
    order. Raises :class:`InsufficientDataError` when the clean twin
    produces no curve — there is nothing to pair against.
    """
    base = resolve_scenario(scenario, scale, scales, suite, seed)
    pool = resolve_executor(executor)
    clean_logs = base.generate(seed=seed, executor=pool).logs

    variants, payloads = [], [(clean_logs, seed, None, f"{suite}:clean")]
    for p in perturbations:
        logs, windows, subsample = clean_logs, [], None
        if p.kind == "incident":
            telemetry = base.with_incidents(p.plan).generate(
                seed=seed, executor=pool)
            logs = telemetry.logs
            windows = [w.to_dict() for w in telemetry.incident_windows]
        elif p.kind == "degrade":
            logs = p.plan.apply(clean_logs)
        else:
            subsample = p.plan
        variants.append((logs, windows))
        payloads.append((logs, seed, subsample, f"{suite}:{p.key}"))

    clean, *runs = pool.map_ordered(_twin_task, payloads)
    if clean.curve is None:
        raise InsufficientDataError(
            f"clean twin of the {suite} suite produced no curve: {clean.error}")
    cells = []
    for p, run, (logs, windows) in zip(perturbations, runs, variants):
        probes = [f for probe in _PROBES[p.kind] for f in probe(clean_logs, logs)]
        distance, n_compared = _curve_distance(
            run.curve, clean.curve, p.compare_max_ms)
        cells.append(replace(
            run, probes=probes, distance=distance,
            n_compared=n_compared, incident_windows=windows,
            verdict=paired_verdict(distance, n_compared, p.tolerance, probes,
                                   run.health, run.error, within_label),
        ))
    return clean, cells


def write_artifacts(out_dir: Union[str, Path], artifacts: Mapping[str, Any]) -> None:
    """Write ``{file name: payload}`` into ``out_dir``: curves in their own
    ``save_json`` format (``obs diff`` sniffs it), everything else as
    sorted-key JSON, so artifacts are byte-stable."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        if isinstance(payload, PreferenceResult):
            payload.save_json(out / name)
        else:
            (out / name).write_text(json.dumps(payload, indent=1, sort_keys=True))


def suite_summary(outcomes: Mapping[str, Any], entry: Any, **head: Any) -> Dict[str, Any]:
    """A suite's ``summary.json``: ``head``, ``entry(outcome)`` per fixture,
    and the suite gate (every outcome's ``gate_passed``)."""
    return {**head, "fixtures": {name: entry(o) for name, o in outcomes.items()},
            "gate_passed": all(o.gate_passed for o in outcomes.values())}
