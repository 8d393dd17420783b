"""Chaos tests: every fault class, end to end through the pipeline.

The contract under corruption is: the pipeline either produces a clean
result whose ingest report flags what was rejected, or raises a typed
:class:`~repro.errors.ReproError` — it never crashes with an untyped
exception and never returns a curve poisoned by non-finite values.

The sweep covers the syntactic fault catalogue, every workload incident
(queue-backed telemetry generated under the incident, then corrupted)
and every degradation operator (applied to the ingested, quarantined
store) — the real specs, not row-level copies of them.
"""

import numpy as np
import pytest

from repro.core import AutoSens, AutoSensConfig, DegradePolicy
from repro.errors import ReproError
from tests.faults import DEFAULT_FAULT_SPECS, FaultPlan, corrupt_jsonl
from repro.telemetry import IngestPolicy, read_jsonl, write_jsonl
from repro.workload import (
    DEFAULT_INCIDENT_SPECS,
    DEGRADATION_BUILDERS,
    SCENARIOS,
    DegradationPlan,
    IncidentPlan,
    owa_scenario,
)

#: Fault classes whose rows can only be rejected at ingest (syntactic or
#: value-level corruption the readers must catch).
_REJECTED_AT_INGEST = {
    "malformed-lines", "truncated-lines", "nan-latency",
    "negative-latency", "dropped-fields",
}

#: Every chaos case: each syntactic fault, each workload incident and each
#: degradation operator. Incident and degradation cases also carry the
#: rejected-at-ingest corruption, so ingest must quarantine something.
_CASES = (sorted(DEFAULT_FAULT_SPECS)
          + [f"incident-{name}" for name in sorted(DEFAULT_INCIDENT_SPECS)]
          + [f"degrade-{name}" for name in sorted(DEGRADATION_BUILDERS)])

#: Degradation level for the sweep: moderate, so the estimator keeps
#: enough rows to answer.
_DEGRADE_LEVEL = 0.5


@pytest.fixture(scope="module")
def clean_file(tmp_path_factory):
    """A clean mid-sized workload written once for the whole module."""
    result = owa_scenario(
        seed=77, duration_days=2.5, n_users=120,
        candidates_per_user_day=80.0,
    ).generate()
    path = tmp_path_factory.mktemp("chaos") / "clean.jsonl"
    write_jsonl(result.logs.iter_records(), path)
    return path


def _curve(logs, seed=5):
    engine = AutoSens(AutoSensConfig(seed=seed), degrade=DegradePolicy())
    return engine.preference_curve(logs)


def _incident_file(name, path):
    """Queue-backed telemetry (the paired suites' small scale) generated
    under one workload incident, written as JSONL."""
    plan = IncidentPlan(specs=(DEFAULT_INCIDENT_SPECS[name](),), seed=13)
    result = SCENARIOS["owa-queue"](
        seed=77, duration_days=2.0, n_users=140,
        candidates_per_user_day=80.0, incident_plan=plan,
    ).generate()
    assert result.incident_windows, f"incident {name} left no window"
    write_jsonl(result.logs.iter_records(), path)
    return path


@pytest.mark.parametrize("fault_name", _CASES)
def test_pipeline_survives_fault(fault_name, clean_file, tmp_path):
    source = clean_file
    faults = [fault_name]
    if fault_name not in DEFAULT_FAULT_SPECS:
        faults = sorted(_REJECTED_AT_INGEST)
    if fault_name.startswith("incident-"):
        source = _incident_file(fault_name.removeprefix("incident-"),
                                tmp_path / "incident.jsonl")
    plan = FaultPlan(specs=tuple(DEFAULT_FAULT_SPECS[f]() for f in faults),
                     seed=13)
    dirty = tmp_path / f"{fault_name}.jsonl"
    corrupt_jsonl(source, dirty, plan)

    sink = tmp_path / f"{fault_name}.rejects.jsonl"
    policy = IngestPolicy(
        mode="quarantine", max_bad_share=1.0, quarantine_path=sink
    )
    try:
        logs = read_jsonl(dirty, policy=policy)
    except ReproError:
        return  # a typed refusal is an acceptable outcome
    report = logs.ingest_report
    assert report is not None

    if _REJECTED_AT_INGEST.intersection(faults):
        # Corruption of this class must be caught and quarantined, never
        # silently absorbed into the store.
        assert report.n_bad > 0
        assert sink.exists()
    else:
        # Semantic faults parse fine; the store simply reflects them.
        assert report.n_rows > 0

    if fault_name.startswith("degrade-"):
        operator = DEGRADATION_BUILDERS[fault_name.removeprefix("degrade-")]
        logs = DegradationPlan(specs=(operator(_DEGRADE_LEVEL),),
                               seed=13).apply(logs)

    try:
        curve = _curve(logs)
    except ReproError:
        return  # starved slices may legitimately refuse
    # Never a poisoned curve: every valid point is finite.
    assert np.isfinite(curve.nlp[curve.valid]).all()


def test_fault_free_plan_is_identity(clean_file, tmp_path):
    dirty = tmp_path / "copy.jsonl"
    corrupt_jsonl(clean_file, dirty, FaultPlan(specs=(), seed=0))
    assert dirty.read_text() == clean_file.read_text()


def test_clean_data_identical_under_every_policy(clean_file, tmp_path):
    """Resilient ingestion must not perturb clean data: the curve from a
    strict read is bit-identical to lenient and quarantine reads."""
    strict = _curve(read_jsonl(clean_file))
    lenient = _curve(read_jsonl(
        clean_file, policy=IngestPolicy(mode="lenient")))
    quarantined = _curve(read_jsonl(clean_file, policy=IngestPolicy(
        mode="quarantine", quarantine_path=tmp_path / "q.jsonl")))
    for other in (lenient, quarantined):
        np.testing.assert_array_equal(strict.nlp, other.nlp)
        np.testing.assert_array_equal(strict.latencies, other.latencies)
        assert strict.n_actions == other.n_actions


def test_quarantine_plus_degrade_full_sweep(clean_file, tmp_path):
    """The dirty-data quickstart path: corrupt heavily, quarantine, apply
    every degradation operator, sweep with a degrade policy — starved
    slices are skipped and recorded."""
    specs = tuple(DEFAULT_FAULT_SPECS[name]() for name in sorted(DEFAULT_FAULT_SPECS))
    dirty = tmp_path / "everything.jsonl"
    corrupt_jsonl(clean_file, dirty, FaultPlan(specs=specs, seed=99))

    logs = read_jsonl(dirty, policy=IngestPolicy(
        mode="quarantine", max_bad_share=1.0,
        quarantine_path=tmp_path / "rejects.jsonl",
    ))
    assert logs.ingest_report.n_bad > 0
    logs = DegradationPlan(
        specs=tuple(DEGRADATION_BUILDERS[name](_DEGRADE_LEVEL)
                    for name in sorted(DEGRADATION_BUILDERS)),
        seed=99).apply(logs)

    engine = AutoSens(AutoSensConfig(seed=5), degrade=DegradePolicy())
    curves = engine.curves_by_action(logs)
    for curve in curves.values():
        assert np.isfinite(curve.nlp[curve.valid]).all()
