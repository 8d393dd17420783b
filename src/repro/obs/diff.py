"""The comparison engine: one series extractor and one direction rule.

:func:`series` turns any comparable artifact into ``{name: float}``, and
:func:`direction` says, per series name, which way is better and which
tolerance applies. Both comparisons in :mod:`repro.obs` read them:

- ``autosens obs diff <a> <b>`` (and ``runs diff``, its registry form)
  classifies every name in the union of the two artifacts' series as
  ``improved`` / ``regressed`` / ``unchanged`` / ``added`` / ``removed``;
- ``autosens watch`` (:mod:`repro.obs.watch`) tracks the same series of
  every recorded manifest across registry history, and its ``stable``
  objectives take "worse" from the same rule.

Artifact kinds are sniffed from JSON shape, not file name:

- **manifest** — run manifests (``run_id``): degradation count, health
  verdict and finding counts, ingest reject rate, metric totals, and span
  timings (seconds, share of the run's span seconds, and count);
- **metrics** — registry JSON snapshots (``kind``/``series`` values);
- **curve** — ``PreferenceResult`` JSON (``series`` with ``nlp``): the
  NLP value of every valid bin, plus the bin and valid-bin counts;
- **health** — serialized health reports: verdict rank and finding counts;
- **sensitivity** — frontier artifacts from the sensitivity suite
  (``fixture`` + ``cells``): per-level verdict ranks, bias magnitudes,
  band inflation, compared support, and gate state.

A self-comparison is 100 % ``unchanged`` by construction (every entry
takes an exact-equality fast path before any tolerance math) — the
property the acceptance tests pin.
Artifacts read from disk are validated by their writer's loader once
their kind is sniffed; :func:`load_diff` validates a diff report on read.
"""

from __future__ import annotations

import fnmatch
import math
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.obs import _schema

__all__ = [
    "DIFF_SCHEMA",
    "sniff_kind",
    "series",
    "direction",
    "match_series",
    "worsened",
    "load_artifact",
    "load_diff",
    "diff_artifacts",
    "diff_paths",
    "diff_exit_code",
    "render_diff",
    "write_diff",
]

#: Bump when the diff artifact field set changes.
DIFF_SCHEMA = 1

#: How each compared quantity is classified.
CLASSIFICATIONS = ("improved", "regressed", "unchanged", "added", "removed")

#: Default relative tolerance for ratio-ish quantities (shares, totals).
DEFAULT_REL_TOL = 0.10

#: Default absolute tolerance for NLP curve values (the curve is ~O(1)).
DEFAULT_CURVE_TOL = 0.02

#: A span's seconds must move by at least this much to count as a change.
#: Small spans are scheduler noise: two identical wall-clock runs of
#: ``experiment bottleneck --scale small`` on a 2-vCPU host moved every
#: span (0.2-58 ms) by 11-40 %, each by under 10 ms.
SPAN_SECONDS_FLOOR = 0.1

_VERDICT_RANK = {"ok": 0, "warn": 1, "fail": 2}

#: Sensitivity-cell verdicts in increasing badness.
_CELL_VERDICT_RANK = {"robust": 0, "degraded-explained": 1, "silent-bias": 2}

#: Counter families (``autosens_<event>_total``) that count bad events.
_BAD_EVENTS = ("degradations", "rejects", "refusals", "failures", "retries",
               "recoveries", "torn", "transitions")

#: The direction rule, first match wins: ``(name pattern, better side,
#: tolerance)``. The better side is ``lower``, ``higher`` or ``pinned``
#: (any move past the tolerance is for the worse). Tolerances: ``exact``
#: (none — counts and ranks), ``rel`` (``--rel-tol``, relative),
#: ``share`` (``--rel-tol`` as an absolute bound: a share is already
#: relative) and ``curve`` (``--curve-tol``, absolute, in NLP units).
_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "lower", "rel"),
    ("span_seconds[*]", "lower", "rel"),
    ("span_share[*]", "lower", "share"),
    ("span_count[*]", "pinned", "exact"),
    ("degradations", "lower", "exact"),
    ("health.*", "lower", "exact"),
    ("ingest.reject_rate", "lower", "rel"),
    ("curve.n_valid_bins", "higher", "exact"),
    ("curve.n_bins", "pinned", "exact"),
    ("curve.nlp[*]", "pinned", "curve"),
    ("*gate_passed", "higher", "exact"),
    ("*.verdict_rank", "lower", "exact"),
    ("*.bias_*", "pinned", "curve"),
    ("*.ci_band_inflation", "lower", "rel"),
    ("*.n_compared_bins", "pinned", "exact"),
    ('*severity="warn"*', "lower", "rel"),
    ('*severity="fail"*', "lower", "rel"),
    *((f"*_{event}_total*", "lower", "rel") for event in _BAD_EVENTS),
)

#: Every other name — a metric of neutral events, say — is pinned.
_DEFAULT_RULE = ("pinned", "rel")


def match_series(name: str, pattern: str) -> bool:
    """fnmatch with *literal* brackets: series names embed ``[span]``
    suffixes, so ``[`` must never open a character class."""
    return fnmatch.fnmatchcase(name, pattern.replace("[", "[[]"))


def direction(name: str) -> Tuple[str, str]:
    """``(better, tolerance)`` for one series name, from :data:`_RULES`."""
    for pattern, better, tolerance in _RULES:
        if match_series(name, pattern):
            return better, tolerance
    return _DEFAULT_RULE


def worsened(name: str, up: bool) -> bool:
    """Whether a move (``up`` or down) of series ``name`` is for the
    worse: any move of a pinned series, else a move away from its better
    side."""
    better = direction(name)[0]
    return better == "pinned" or up == (better == "lower")


def _entry(key: str, a: Optional[float], b: Optional[float],
           tol: float, absolute: bool, floor: float = 0.0) -> Dict[str, Any]:
    """Classify one quantity under its tolerance and its direction; a move
    smaller than ``floor`` is ``unchanged`` whatever its drift."""
    entry: Dict[str, Any] = {"key": key, "a": a, "b": b}
    if a is None or b is None:
        entry["classification"] = "added" if a is None else "removed"
        return entry
    if a == b:  # exact-equality fast path: self-diff is always unchanged
        entry["delta"] = 0.0
        entry["classification"] = "unchanged"
        return entry
    delta = b - a
    drift = abs(delta) if absolute else \
        abs(delta) / max(abs(a), abs(b), 1e-12)
    entry["delta"] = round(delta, 6)
    entry["drift"] = round(drift, 6)
    if drift <= tol or abs(delta) < floor:
        entry["classification"] = "unchanged"
    else:
        entry["classification"] = \
            "regressed" if worsened(key, delta > 0) else "improved"
    return entry


# ---------------------------------------------------------------------------
# Artifact loading and kind sniffing.
# ---------------------------------------------------------------------------


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a JSON artifact and validate it with its kind's loader;
    :class:`SchemaError` on unreadable, unrecognized or invalid files."""
    from repro.errors import SchemaError

    path = Path(path)
    if path.is_dir():  # a run directory: prefer its manifest.json
        manifests = [path / "manifest.json"] if \
            (path / "manifest.json").exists() else \
            sorted(path.glob("*manifest*.json"))
        if not manifests:
            raise SchemaError(f"{path} holds no manifest to diff")
        path = manifests[0]
    payload = _schema.read_json(path, "artifact")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path} is not a JSON object")
    loader = _kind_loader(sniff_kind(payload))
    if loader is not None:
        loader(_schema.Parsed(path, payload))
    return payload


def _kind_loader(kind: str) -> Optional[Callable[[Any], Any]]:
    """The writer's validating loader for an artifact kind (curves have
    none). Imports are lazy, so importing this module loads no writer."""
    from repro.obs.health import load_health_report
    from repro.obs.manifest import load_manifest
    from repro.obs.metrics import load_metrics_json

    if kind == "sensitivity":
        from repro.analysis.sensitivity import load_frontier  # needs numpy
        return load_frontier
    return {"manifest": load_manifest, "metrics": load_metrics_json,
            "health": load_health_report}.get(kind)


def sniff_kind(payload: Dict[str, Any]) -> str:
    """Artifact kind from JSON shape; :class:`SchemaError` if unrecognized."""
    from repro.errors import SchemaError

    if "fixture" in payload and "cells" in payload:
        return "sensitivity"
    if "run_id" in payload:
        return "manifest"
    if "verdict" in payload and "findings" in payload:
        return "health"
    if isinstance(payload.get("series"), dict) and "nlp" in payload["series"]:
        return "curve"
    if payload and all(
        isinstance(v, dict) and {"kind", "series"} <= set(v)
        for v in payload.values()
    ):
        return "metrics"
    raise SchemaError(
        "unrecognized artifact shape (expected manifest/metrics/curve/"
        "health/sensitivity JSON)")


# ---------------------------------------------------------------------------
# The series extractor: one artifact -> {series name: value}.
# ---------------------------------------------------------------------------


def _metric_series(snapshot: Dict[str, Any],
                   prefix: str = "") -> Dict[str, float]:
    """Metric snapshot → flat ``name{labels}`` → value map."""
    return {f"{prefix}{name}{labels}": float(value)
            for name, metric in snapshot.items() if isinstance(metric, dict)
            for labels, value in metric.get("series", {}).items()}


def _health_series(health: Dict[str, Any]) -> Dict[str, float]:
    values = {"health.verdict_rank":
              float(_VERDICT_RANK.get(str(health.get("verdict")), 2))}
    counts = health.get("counts")
    if isinstance(counts, dict):
        for severity in ("warn", "fail"):
            values[f"health.{severity}"] = float(counts.get(severity, 0))
    return values


def _manifest_series(manifest: Dict[str, Any]) -> Dict[str, float]:
    """Span seconds, shares and counts; health; degradations; the ingest
    reject rate; and every metric, as ``metrics.<name>{labels}``.

    A share is a span's seconds over the sum of every span's seconds in
    the same run. Shares survive machine-speed differences, so a span whose
    *relative* cost grows is the one worth looking at.
    """
    values: Dict[str, float] = {}
    timings = manifest.get("span_timings") or {}
    seconds = {name: float(timings[name]["seconds"])
               for name in sorted(timings)}
    total = sum(seconds.values())
    for name, value in seconds.items():
        values[f"span_seconds[{name}]"] = value
        values[f"span_count[{name}]"] = float(timings[name].get("count", 0))
        if total > 0.0:
            values[f"span_share[{name}]"] = value / total
    if isinstance(manifest.get("health"), dict):
        values.update(_health_series(manifest["health"]))
    if "degradations" in manifest:
        values["degradations"] = float(len(manifest["degradations"] or []))
    ingest = manifest.get("ingest") or {}
    n_rows, n_bad = ingest.get("n_rows"), ingest.get("n_bad")
    if _schema.is_number(n_rows) and n_rows and _schema.is_number(n_bad):
        values["ingest.reject_rate"] = float(n_bad) / float(n_rows)
    values.update(_metric_series(manifest.get("metrics") or {}, "metrics."))
    return values


def _curve_series(curve: Dict[str, Any]) -> Dict[str, float]:
    """Bin counts, and the NLP value of every finite bin by index."""
    nlp = list(curve.get("series", {}).get("nlp", []))
    values = {"curve.n_bins": float(len(nlp)),
              "curve.n_valid_bins": float(sum(v is not None for v in nlp))}
    values.update((f"curve.nlp[{i}]", float(v)) for i, v in enumerate(nlp)
                  if v is not None and math.isfinite(v))
    return values


def _frontier_series(frontier: Dict[str, Any]) -> Dict[str, float]:
    """The frontier gate, and per cell (keyed by level): verdict rank,
    gate, bias magnitudes, band inflation and compared support."""
    values = {"frontier.gate_passed":
              float(bool(frontier.get("gate_passed", False)))}
    for cell in frontier.get("cells", []):
        prefix = f"cell[{float(cell.get('level', 0.0)):g}]."
        values[prefix + "verdict_rank"] = float(
            _CELL_VERDICT_RANK.get(str(cell.get("verdict")), 2))
        values[prefix + "gate_passed"] = float(
            bool(cell.get("gate_passed", False)))
        for key in ("bias_linf", "bias_signed_area", "ci_band_inflation",
                    "n_compared_bins"):
            if cell.get(key) is not None:
                values[prefix + key] = float(cell[key])
    return values


#: The series extractor of every artifact kind :func:`sniff_kind` knows.
_EXTRACTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, float]]] = {
    "manifest": _manifest_series,
    "metrics": _metric_series,
    "curve": _curve_series,
    "health": _health_series,
    "sensitivity": _frontier_series,
}


def series(payload: Dict[str, Any]) -> Dict[str, float]:
    """Every comparable number in one artifact, keyed by series name."""
    return _EXTRACTORS[sniff_kind(payload)](payload)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def diff_artifacts(a: Dict[str, Any], b: Dict[str, Any],
                   rel_tol: float = DEFAULT_REL_TOL,
                   curve_tol: float = DEFAULT_CURVE_TOL,
                   a_name: str = "a", b_name: str = "b") -> Dict[str, Any]:
    """Compare two parsed artifacts of the same kind into a diff payload:
    one entry per name in the union of their :func:`series`."""
    from repro.errors import SchemaError

    kind_a = sniff_kind(a)
    kind_b = sniff_kind(b)
    if kind_a != kind_b:
        raise SchemaError(
            f"cannot diff a {kind_a} artifact against a {kind_b} artifact")
    tolerances = {"exact": 0.0, "rel": rel_tol, "share": rel_tol,
                  "curve": curve_tol}
    a_series, b_series = series(a), series(b)
    entries = []
    for name in sorted(set(a_series) | set(b_series)):
        tolerance = direction(name)[1]
        floor = SPAN_SECONDS_FLOOR if match_series(name, "span_seconds[*]") \
            else 0.0
        entries.append(_entry(
            name, a_series.get(name), b_series.get(name),
            tolerances[tolerance], absolute=tolerance in ("share", "curve"),
            floor=floor))
    summary = dict.fromkeys(CLASSIFICATIONS, 0)
    for entry in entries:
        summary[entry["classification"]] += 1
    return {
        "schema": DIFF_SCHEMA,
        "kind": kind_a,
        "a": a_name,
        "b": b_name,
        "tolerances": {"rel_tol": rel_tol, "curve_tol": curve_tol},
        "entries": entries,
        "summary": summary,
    }


def diff_paths(a: Union[str, Path], b: Union[str, Path],
               rel_tol: float = DEFAULT_REL_TOL,
               curve_tol: float = DEFAULT_CURVE_TOL) -> Dict[str, Any]:
    """Load and diff two artifact files (or run directories)."""
    return diff_artifacts(
        load_artifact(a), load_artifact(b),
        rel_tol=rel_tol, curve_tol=curve_tol,
        a_name=str(a), b_name=str(b))


def render_diff(report: Dict[str, Any], show_unchanged: bool = False) -> str:
    """Human-readable diff table (regressions first)."""
    lines = [
        f"obs diff ({report['kind']}): {report['a']} -> {report['b']}",
        "  tolerances: rel={rel_tol:g} curve={curve_tol:g}".format(
            **report["tolerances"]),
    ]
    order = {"regressed": 0, "removed": 1, "added": 2, "improved": 3,
             "unchanged": 4}
    entries = sorted(report["entries"],
                     key=lambda e: (order.get(e["classification"], 5), e["key"]))
    for entry in entries:
        cls = entry["classification"]
        if cls == "unchanged" and not show_unchanged:
            continue
        a_val = entry.get("a")
        b_val = entry.get("b")
        detail = f"{a_val} -> {b_val}"
        if "drift" in entry:
            detail += f" (drift {entry['drift']:.3f})"
        lines.append(f"  [{cls:>9}] {entry['key']}: {detail}")
    summary = report["summary"]
    lines.append(
        "  summary: "
        + " ".join(f"{k}={summary.get(k, 0)}"
                   for k in ("regressed", "improved", "unchanged", "added",
                             "removed")))
    return "\n".join(lines)


def diff_exit_code(report: Dict[str, Any]) -> int:
    """0 when nothing regressed; 1 otherwise (``removed`` counts as drift)."""
    summary = report.get("summary", {})
    bad = summary.get("regressed", 0) + summary.get("removed", 0)
    return 1 if bad else 0


def write_diff(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Serialize the diff payload atomically."""
    return _schema.write_json(report, path, indent=2)


def load_diff(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a diff report back, validating on read: a known kind, keyed
    entries classified from :data:`CLASSIFICATIONS`, and a summary that
    tallies the entries exactly."""
    payload, _, errors = _schema.read_object(path, "diff report", DIFF_SCHEMA)
    entries = payload.get("entries")
    if payload.get("kind") not in _EXTRACTORS or \
            not isinstance(entries, list):
        _schema.raise_if(errors + [f"{path}: unknown kind or no entries"])
    tally = dict.fromkeys(CLASSIFICATIONS, 0)
    for i, entry in enumerate(entries):
        if _schema.missing(entry, ("key", "classification")) or \
                entry["classification"] not in CLASSIFICATIONS:
            errors.append(f"{path}: entry {i} lacks a key or a known "
                          f"classification")
        else:
            tally[entry["classification"]] += 1
    summary = payload.get("summary")
    if not isinstance(summary, dict) or \
            {k: summary.get(k, 0) for k in CLASSIFICATIONS} != tally:
        errors.append(
            f"{path}: summary {summary} disagrees with the entries ({tally})")
    _schema.raise_if(errors)
    return payload
