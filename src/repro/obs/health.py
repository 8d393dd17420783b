"""Composing probe findings into a per-stage, per-run health report.

A :class:`HealthReport` folds the run's accumulated
:class:`~repro.obs.probes.HealthFinding` records (plus any recorded
degradations) into one verdict per stage and one overall verdict — the
thing ``autosens doctor`` prints and the run manifest carries under
``extra["health"]``.

Severity algebra is deliberately simple: a stage's verdict is the worst
severity among its findings, the overall verdict is the worst stage, and
runtime degradations (starved slices, tripped breakers, exceeded
deadlines) count as ``warn`` findings on a synthetic ``runtime`` stage so
a faulted run can never report clean.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs import _schema
from repro.obs.probes import SEVERITIES

__all__ = [
    "HEALTH_SCHEMA",
    "HealthReport",
    "build_health_report",
    "load_health_report",
    "write_health_report",
]

#: Bump when the serialized health-report field set changes.
HEALTH_SCHEMA = 1

_RANK = {name: i for i, name in enumerate(SEVERITIES)}


def _worst(severities: Iterable[str]) -> str:
    worst = "ok"
    for severity in severities:
        if _RANK.get(severity, 0) > _RANK[worst]:
            worst = severity
    return worst


class HealthReport:
    """Findings grouped by stage with folded verdicts.

    ``verdict`` is one of ``ok``/``warn``/``fail``; ``exit_code`` maps it
    onto the CLI taxonomy (``fail`` → 1, otherwise 0 — warnings are
    advisory, the run's answer still exists).
    """

    def __init__(self, findings: List[Dict[str, Any]]) -> None:
        self.findings = findings
        self.stages: Dict[str, str] = {}
        for finding in findings:
            stage = str(finding.get("stage", "unknown"))
            severity = str(finding.get("severity", "warn"))
            self.stages[stage] = _worst((self.stages.get(stage, "ok"), severity))
        self.verdict = _worst(self.stages.values()) if self.stages else "ok"

    @property
    def exit_code(self) -> int:
        return 1 if self.verdict == "fail" else 0

    def counts(self) -> Dict[str, int]:
        """Finding counts by severity (all three keys always present)."""
        out = {name: 0 for name in SEVERITIES}
        for finding in self.findings:
            out[str(finding.get("severity", "warn"))] = (
                out.get(str(finding.get("severity", "warn")), 0) + 1)
        return out

    def worst_findings(self, limit: int = 10) -> List[Dict[str, Any]]:
        """Findings sorted worst-first (stable within a severity)."""
        ranked = sorted(
            self.findings,
            key=lambda f: -_RANK.get(str(f.get("severity", "warn")), 1),
        )
        return ranked[:limit]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": HEALTH_SCHEMA,
            "verdict": self.verdict,
            "stages": {k: self.stages[k] for k in sorted(self.stages)},
            "counts": self.counts(),
            "findings": self.findings,
        }


def build_health_report(
    findings: Optional[Iterable[Dict[str, Any]]] = None,
    degradations: Optional[Iterable[Dict[str, Any]]] = None,
) -> HealthReport:
    """Compose the report from probe findings and runtime degradations.

    When both arguments are omitted, the active observability context's
    accumulated findings and degradations are used — the shape
    ``run_experiment`` and the CLI rely on.
    """
    if findings is None and degradations is None:
        from repro.obs import _runtime

        ctx = _runtime.current()
        findings = list(ctx.findings) if ctx.enabled else []
        degradations = list(ctx.degradations) if ctx.enabled else []
    merged: List[Dict[str, Any]] = [dict(f) for f in (findings or [])]
    for degradation in degradations or []:
        kind = str(degradation.get("kind", "degradation"))
        detail = {k: v for k, v in degradation.items() if k != "kind"}
        merged.append({
            "probe": "degradation",
            "stage": "runtime",
            "severity": "warn",
            "message": f"runtime degradation recorded: {kind}",
            "context": {"kind": kind, **{k: _scalar(v) for k, v in detail.items()}},
        })
    return HealthReport(merged)


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_health_report(report: HealthReport, path: Union[str, Path]) -> Path:
    """Serialize the report atomically (same discipline as the manifest)."""
    return _schema.write_json(report.to_dict(), path, indent=2)


FINDING_FIELDS = ("probe", "stage", "severity", "message")


def health_violations(payload: Any, where: str) -> List[str]:
    """Every way ``payload`` fails to be a serialized health report: its
    shape, and folded ``verdict``/``stages``/``counts`` that disagree
    with its findings."""
    findings = payload.get("findings") if isinstance(payload, dict) else None
    if not isinstance(findings, list):
        return [f"{where}: not a health report (no findings list)"]
    errors = [] if payload.get("schema") == HEALTH_SCHEMA else [
        f"{where}: health schema != {HEALTH_SCHEMA}"]
    if payload.get("verdict") not in SEVERITIES:
        errors.append(f"{where}: bad verdict {payload.get('verdict')!r}")
    errors += [f"{where}: finding {i} lacks {FINDING_FIELDS} or a known "
               f"severity" for i, f in enumerate(findings)
               if _schema.missing(f, FINDING_FIELDS)
               or f["severity"] not in SEVERITIES]
    if errors:
        return errors
    # The verdict is only folded from findings when there are any.
    folded = HealthReport(findings).to_dict()
    return [f"{where}: {key} {payload[key]!r} disagrees with the findings "
            f"({folded[key]!r})" for key in ("verdict", "stages", "counts")
            if key in payload and payload[key] != folded[key]
            and (findings or key != "verdict")]


def load_health_report(source: Union[str, Path, Dict[str, Any]]) -> HealthReport:
    """Rebuild a report from a file path or an already-parsed dict,
    validating on read (:func:`health_violations`); ``autosens doctor``
    turns the :class:`repro.errors.SchemaError` into exit code 3."""
    payload = _schema.read_json(source, "health report")
    _schema.raise_if(health_violations(
        payload, _schema.owner(source, "health report")))
    return HealthReport([dict(f) for f in payload["findings"]])
