"""Cross-run regression detection: compare two run artifacts with tolerances.

``autosens obs diff <a> <b>`` compares two artifacts of the same kind and
classifies every comparable quantity as ``improved`` / ``regressed`` /
``unchanged`` under a relative tolerance. Supported artifact kinds are
sniffed from JSON shape, not file name:

- **manifest** — run manifests (``run_id``): degradation counts, health
  verdicts, metric totals (cache hits up, misses/evictions/errors down),
  and embedded span timings;
- **metrics** — registry JSON snapshots (``kind``/``series`` values);
- **curve** — ``PreferenceResult`` JSON (``series`` with ``nlp``): max
  absolute NLP deviation over the common valid bins plus support changes;
- **health** — serialized health reports: verdict rank and finding counts;
- **sensitivity** — frontier artifacts from the sensitivity suite
  (``fixture`` + ``cells``): per-level verdict ranks, bias magnitudes,
  band inflation, compared support, and gate state;
- **watch-baseline** / **watch-trend** — fleet watch artifacts from
  :mod:`repro.obs.watch` (self-identified by their ``kind`` field):
  per-series EWMA centers and MAD noise, and change-point state ranks
  with pinned change sequences.

A self-comparison is 100 % ``unchanged`` by construction (every comparator
is an exact-equality fast path before any tolerance math) — the property
the acceptance tests pin.
Artifacts read from disk are validated by their writer's loader once
their kind is sniffed; :func:`load_diff` validates a diff report on read.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs import _schema

__all__ = [
    "DIFF_SCHEMA",
    "sniff_kind",
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

#: Artifact kinds :func:`sniff_kind` recognizes.
DIFF_KINDS = ("manifest", "metrics", "curve", "health", "sensitivity",
              "watch-baseline", "watch-trend")

#: How each compared quantity is classified.
CLASSIFICATIONS = ("improved", "regressed", "unchanged", "added", "removed")

#: Default relative tolerance for ratio-ish quantities (shares, totals).
DEFAULT_REL_TOL = 0.10

#: Default absolute tolerance for NLP curve values (the curve is ~O(1)).
DEFAULT_CURVE_TOL = 0.02

_VERDICT_RANK = {"ok": 0, "warn": 1, "fail": 2}

#: Metric-name fragments with a known good direction.
_HIGHER_BETTER = ("hit",)
_LOWER_BETTER = (
    "miss", "evict", "degrad", "bad", "skip", "reject", "error", "crash",
    "retr", "trip", "kill",
)


def _direction(key: str) -> Optional[str]:
    lowered = key.lower()
    if any(tok in lowered for tok in _HIGHER_BETTER):
        return "higher"
    if any(tok in lowered for tok in _LOWER_BETTER):
        return "lower"
    return None


def _entry(key: str, a: Optional[float], b: Optional[float],
           rel_tol: float, better: Optional[str],
           absolute: bool = False) -> Dict[str, Any]:
    """Classify one quantity. ``better=None`` treats any drift as regression
    (the quantity is pinned, e.g. an NLP value against a committed baseline).
    """
    entry: Dict[str, Any] = {"key": key, "a": a, "b": b}
    if a is None or b is None:
        entry["classification"] = "unchanged" if a == b else "added" if a is None else "removed"
        return entry
    a = float(a)
    b = float(b)
    if a == b:  # exact-equality fast path: self-diff is always unchanged
        entry["delta"] = 0.0
        entry["classification"] = "unchanged"
        return entry
    delta = b - a
    if absolute:
        drift = abs(delta)
    else:
        denom = max(abs(a), abs(b), 1e-12)
        drift = abs(delta) / denom
    entry["delta"] = round(delta, 6)
    entry["drift"] = round(drift, 6)
    if drift <= rel_tol:
        entry["classification"] = "unchanged"
    elif better is None:
        entry["classification"] = "regressed"
    elif (delta > 0) == (better == "higher"):
        entry["classification"] = "improved"
    else:
        entry["classification"] = "regressed"
    return entry


# ---------------------------------------------------------------------------
# Artifact loading and kind sniffing.
# ---------------------------------------------------------------------------


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a JSON artifact and validate it with its kind's loader;
    :class:`SchemaError` on unreadable, unrecognized or invalid files."""
    from repro.errors import SchemaError

    path = Path(path)
    if path.is_dir():
        # A run directory: prefer its manifest.
        for candidate in ("manifest.json",):
            if (path / candidate).exists():
                path = path / candidate
                break
        else:
            manifests = sorted(path.glob("*manifest*.json"))
            if not manifests:
                raise SchemaError(f"{path} holds no manifest to diff")
            path = manifests[0]
    payload = _schema.read_json(path, "artifact")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path} is not a JSON object")
    loader = _kind_loader(sniff_kind(payload))
    if loader is not None:
        loader(path)
    return payload


def _kind_loader(kind: str) -> Optional[Callable[[Any], Any]]:
    """The writer's validating loader for an artifact kind (curves have
    none). Imports are lazy: the writers import this module."""
    from repro.obs.health import load_health_report
    from repro.obs.manifest import load_manifest
    from repro.obs.metrics import load_metrics_json
    from repro.obs.watch import load_watch_artifact

    if kind == "sensitivity":
        from repro.analysis.sensitivity import load_frontier  # needs numpy
        return load_frontier
    if kind.startswith("watch-"):
        return lambda source: load_watch_artifact(source, kind)
    return {"manifest": load_manifest, "metrics": load_metrics_json,
            "health": load_health_report}.get(kind)


def sniff_kind(payload: Dict[str, Any]) -> str:
    """Artifact kind from JSON shape; :class:`SchemaError` if unrecognized."""
    from repro.errors import SchemaError

    if payload.get("kind") in ("watch-baseline", "watch-trend"):
        return str(payload["kind"])
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
        "health/sensitivity/watch JSON)")


# ---------------------------------------------------------------------------
# Per-kind comparators. Each returns a list of classified entries.
# ---------------------------------------------------------------------------


def _span_share_entries(a_spans: Dict[str, Any], b_spans: Dict[str, Any],
                        rel_tol: float) -> List[Dict[str, Any]]:
    """Span timings compared as shares of each run's total span seconds.

    Shares survive machine-speed differences; a span whose *relative* cost
    grows is the one worth looking at. Counts are compared exactly — a span
    firing a different number of times is a structural change, not noise.
    """
    entries: List[Dict[str, Any]] = []
    a_total = sum(float(v.get("seconds", 0.0)) for v in a_spans.values()) or 1.0
    b_total = sum(float(v.get("seconds", 0.0)) for v in b_spans.values()) or 1.0
    for name in sorted(set(a_spans) | set(b_spans)):
        a_entry = a_spans.get(name)
        b_entry = b_spans.get(name)
        a_share = (float(a_entry.get("seconds", 0.0)) / a_total
                   if a_entry is not None else None)
        b_share = (float(b_entry.get("seconds", 0.0)) / b_total
                   if b_entry is not None else None)
        if (a_entry is not None and b_entry is not None
                and a_entry.get("seconds") == b_entry.get("seconds")):
            # Identical absolute timings (self-diff): shares are equal too,
            # but float division can wobble — force the fast path.
            a_share = b_share
        entries.append(_entry(
            f"span_share[{name}]",
            round(a_share, 6) if a_share is not None else None,
            round(b_share, 6) if b_share is not None else None,
            rel_tol, better="lower", absolute=True))
        a_count = float(a_entry.get("count", 0)) if a_entry is not None else None
        b_count = float(b_entry.get("count", 0)) if b_entry is not None else None
        entries.append(_entry(
            f"span_count[{name}]", a_count, b_count,
            0.0, better=None))
    return entries


def _flatten_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Metric snapshot → flat ``name{labels}`` → value map."""
    flat: Dict[str, float] = {}
    for name, metric in snapshot.items():
        if not isinstance(metric, dict):
            continue
        for labels, value in metric.get("series", {}).items():
            flat[f"{name}{labels}"] = float(value)
    return flat


def _metric_entries(a_flat: Dict[str, float], b_flat: Dict[str, float],
                    rel_tol: float, prefix: str = "") -> List[Dict[str, Any]]:
    entries = []
    for key in sorted(set(a_flat) | set(b_flat)):
        entries.append(_entry(
            f"{prefix}{key}", a_flat.get(key), b_flat.get(key),
            rel_tol, better=_direction(key)))
    return entries


def _diff_metrics(a: Dict[str, Any], b: Dict[str, Any],
                  rel_tol: float) -> List[Dict[str, Any]]:
    return _metric_entries(_flatten_metrics(a), _flatten_metrics(b), rel_tol)


def _diff_health(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    entries = [_entry(
        "health.verdict_rank",
        float(_VERDICT_RANK.get(str(a.get("verdict")), 2)),
        float(_VERDICT_RANK.get(str(b.get("verdict")), 2)),
        0.0, better="lower")]
    a_counts = a.get("counts", {})
    b_counts = b.get("counts", {})
    for severity in ("warn", "fail"):
        entries.append(_entry(
            f"health.findings[{severity}]",
            float(a_counts.get(severity, 0)), float(b_counts.get(severity, 0)),
            0.0, better="lower"))
    return entries


def _diff_manifest(a: Dict[str, Any], b: Dict[str, Any],
                   rel_tol: float) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    entries.append(_entry(
        "degradations", float(len(a.get("degradations") or [])),
        float(len(b.get("degradations") or [])), 0.0, better="lower"))
    a_health = a.get("health")
    b_health = b.get("health")
    if isinstance(a_health, dict) or isinstance(b_health, dict):
        entries.extend(_diff_health(a_health or {}, b_health or {}))
    entries.extend(_metric_entries(
        _flatten_metrics(a.get("metrics") or {}),
        _flatten_metrics(b.get("metrics") or {}),
        rel_tol, prefix="metrics."))
    a_spans = a.get("span_timings")
    b_spans = b.get("span_timings")
    if isinstance(a_spans, dict) and isinstance(b_spans, dict):
        entries.extend(_span_share_entries(a_spans, b_spans, rel_tol))
    return entries


def _curve_arrays(payload: Dict[str, Any]) -> Tuple[List[Optional[float]], ...]:
    series = payload.get("series", {})
    return (list(series.get("nlp", [])),)


def _diff_curve(a: Dict[str, Any], b: Dict[str, Any],
                curve_tol: float) -> List[Dict[str, Any]]:
    (a_nlp,) = _curve_arrays(a)
    (b_nlp,) = _curve_arrays(b)
    n = min(len(a_nlp), len(b_nlp))
    a_valid = sum(1 for v in a_nlp if v is not None)
    b_valid = sum(1 for v in b_nlp if v is not None)
    entries = [
        _entry("curve.n_bins", float(len(a_nlp)), float(len(b_nlp)),
               0.0, better=None),
        _entry("curve.n_valid_bins", float(a_valid), float(b_valid),
               0.0, better="higher"),
    ]
    max_abs = 0.0
    n_common = 0
    for i in range(n):
        av, bv = a_nlp[i], b_nlp[i]
        if av is None or bv is None:
            continue
        if not (math.isfinite(av) and math.isfinite(bv)):
            continue
        n_common += 1
        max_abs = max(max_abs, abs(bv - av))
    if n_common:
        entries.append(_entry(
            "curve.max_abs_nlp_diff", 0.0, round(max_abs, 6),
            curve_tol, better=None, absolute=True))
    else:
        entries.append({
            "key": "curve.max_abs_nlp_diff", "a": None, "b": None,
            "classification": "regressed" if (a_valid or b_valid) else "unchanged",
        })
    return entries


#: Sensitivity-cell verdicts in increasing badness.
_CELL_VERDICT_RANK = {"robust": 0, "degraded-explained": 1, "silent-bias": 2}


def _diff_sensitivity(a: Dict[str, Any], b: Dict[str, Any],
                      rel_tol: float,
                      curve_tol: float) -> List[Dict[str, Any]]:
    """Frontier vs frontier: cells matched by level, worst drift wins.

    Verdict ranks and compared support are pinned exactly; bias values are
    compared under the curve tolerance (absolute — bias is in NLP units);
    band inflation is a ratio and gets the relative tolerance, lower
    better. A cell present on one side only reports as added/removed.
    """
    def by_level(payload: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        return {
            f"{float(cell.get('level', 0.0)):g}": cell
            for cell in payload.get("cells", [])
        }

    entries = [_entry(
        "frontier.gate_passed",
        float(bool(a.get("gate_passed", False))),
        float(bool(b.get("gate_passed", False))),
        0.0, better="higher")]
    a_cells = by_level(a)
    b_cells = by_level(b)
    for level in sorted(set(a_cells) | set(b_cells), key=float):
        ca = a_cells.get(level)
        cb = b_cells.get(level)

        def value(cell: Optional[Dict[str, Any]], key: str) -> Optional[float]:
            if cell is None or cell.get(key) is None:
                return None
            return float(cell[key])

        def rank(cell: Optional[Dict[str, Any]]) -> Optional[float]:
            if cell is None:
                return None
            return float(_CELL_VERDICT_RANK.get(str(cell.get("verdict")), 2))

        prefix = f"cell[{level}]."
        entries.append(_entry(
            f"{prefix}verdict_rank", rank(ca), rank(cb), 0.0, better="lower"))
        entries.append(_entry(
            f"{prefix}gate_passed",
            None if ca is None else float(bool(ca.get("gate_passed", False))),
            None if cb is None else float(bool(cb.get("gate_passed", False))),
            0.0, better="higher"))
        for key in ("bias_linf", "bias_signed_area"):
            entries.append(_entry(
                f"{prefix}{key}", value(ca, key), value(cb, key),
                curve_tol, better=None, absolute=True))
        entries.append(_entry(
            f"{prefix}ci_band_inflation",
            value(ca, "ci_band_inflation"), value(cb, "ci_band_inflation"),
            rel_tol, better="lower"))
        entries.append(_entry(
            f"{prefix}n_compared_bins",
            value(ca, "n_compared_bins"), value(cb, "n_compared_bins"),
            0.0, better=None))
    return entries


#: Watch change-point states in increasing badness.
_TREND_STATE_RANK = {"stable": 0, "trending": 1, "stepped": 2}


def _watch_series_value(cell: Optional[Dict[str, Any]],
                        key: str) -> Optional[float]:
    if not isinstance(cell, dict) or \
            not isinstance(cell.get(key), (int, float)):
        return None
    return float(cell[key])


def _diff_watch_baseline(a: Dict[str, Any], b: Dict[str, Any],
                         rel_tol: float) -> List[Dict[str, Any]]:
    """Baseline vs baseline: did a series' *center* or *noise* move?

    EWMA centers are pinned (a committed baseline drifting in either
    direction is the regression being hunted); MAD is lower-better — a
    noisier fleet is a worse fleet.
    """
    a_series = a.get("series") or {}
    b_series = b.get("series") or {}
    entries: List[Dict[str, Any]] = []
    for name in sorted(set(a_series) | set(b_series)):
        ca = a_series.get(name)
        cb = b_series.get(name)
        entries.append(_entry(
            f"baseline.ewma[{name}]",
            _watch_series_value(ca, "ewma"), _watch_series_value(cb, "ewma"),
            rel_tol, better=None))
        entries.append(_entry(
            f"baseline.mad[{name}]",
            _watch_series_value(ca, "mad"), _watch_series_value(cb, "mad"),
            rel_tol, better="lower"))
    return entries


def _diff_watch_trend(a: Dict[str, Any],
                      b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Trend vs trend: state ranks lower-better, change seqs pinned."""
    a_series = a.get("series") or {}
    b_series = b.get("series") or {}
    entries: List[Dict[str, Any]] = []

    def rank(cell: Optional[Dict[str, Any]]) -> Optional[float]:
        if not isinstance(cell, dict):
            return None
        return float(_TREND_STATE_RANK.get(str(cell.get("state")), 2))

    for name in sorted(set(a_series) | set(b_series)):
        ca = a_series.get(name)
        cb = b_series.get(name)
        entries.append(_entry(
            f"trend.state_rank[{name}]", rank(ca), rank(cb),
            0.0, better="lower"))
        a_seq = _watch_series_value(ca, "change_seq")
        b_seq = _watch_series_value(cb, "change_seq")
        if a_seq is not None or b_seq is not None:
            entries.append(_entry(
                f"trend.change_seq[{name}]", a_seq, b_seq, 0.0, better=None))
    return entries


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def diff_artifacts(a: Dict[str, Any], b: Dict[str, Any],
                   rel_tol: float = DEFAULT_REL_TOL,
                   curve_tol: float = DEFAULT_CURVE_TOL,
                   a_name: str = "a", b_name: str = "b") -> Dict[str, Any]:
    """Compare two parsed artifacts of the same kind into a diff payload."""
    from repro.errors import SchemaError

    kind_a = sniff_kind(a)
    kind_b = sniff_kind(b)
    if kind_a != kind_b:
        raise SchemaError(
            f"cannot diff a {kind_a} artifact against a {kind_b} artifact")
    if kind_a == "manifest":
        entries = _diff_manifest(a, b, rel_tol)
    elif kind_a == "metrics":
        entries = _diff_metrics(a, b, rel_tol)
    elif kind_a == "curve":
        entries = _diff_curve(a, b, curve_tol)
    elif kind_a == "sensitivity":
        entries = _diff_sensitivity(a, b, rel_tol, curve_tol)
    elif kind_a == "watch-baseline":
        entries = _diff_watch_baseline(a, b, rel_tol)
    elif kind_a == "watch-trend":
        entries = _diff_watch_trend(a, b)
    else:
        entries = _diff_health(a, b)
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tmp.replace(path)
    return path


def load_diff(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a diff report back, validating on read: a known kind, keyed
    entries classified from :data:`CLASSIFICATIONS`, and a summary that
    tallies the entries exactly."""
    payload, _, errors = _schema.read_object(path, "diff report", DIFF_SCHEMA)
    entries = payload.get("entries")
    if payload.get("kind") not in DIFF_KINDS or not isinstance(entries, list):
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
