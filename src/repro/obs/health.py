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

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    tmp.replace(path)
    return path


def load_health_report(source: Union[str, Path, Dict[str, Any]]) -> HealthReport:
    """Rebuild a report from a file path or an already-parsed dict.

    Raises :class:`repro.errors.SchemaError` on a wrong or missing schema —
    ``autosens doctor`` turns that into exit code 3.
    """
    from repro.errors import SchemaError

    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read health report {source}: {exc}") from exc
    else:
        payload = source
    if not isinstance(payload, dict) or payload.get("schema") != HEALTH_SCHEMA:
        raise SchemaError(
            f"not a schema-{HEALTH_SCHEMA} health report: "
            f"{source if isinstance(source, (str, Path)) else type(payload)}")
    findings = payload.get("findings")
    if not isinstance(findings, list):
        raise SchemaError("health report is missing its findings list")
    return HealthReport([dict(f) for f in findings])
