"""Fleet watchtower: SLOs, rolling baselines, and drift detection.

``autosens runs diff`` answers "did this pair of runs move?" with one
``obs diff``. This module answers the fleet question:
*across the whole registry history, which series drifted, when, and does
the fleet still meet its objectives?* It reads the comparison engine of
:mod:`repro.obs.diff`: each recorded manifest's
:func:`~repro.obs.diff.series` (plus the index line's ``wall_s``), and
:func:`~repro.obs.diff.worsened` for which way a move is for the worse.
Three layers, stdlib-only:

- **Rolling baselines** (:func:`robust_baseline`): per-series EWMA center
  plus a median/MAD robust envelope over registry history. MAD tolerates
  the very outliers the envelope exists to flag, so one bad run widens
  nothing.
- **Change-point detection** (:func:`detect_change_point`): an offline
  least-squares detector in the PELT/CUSUM family. Each series is
  classified ``stable`` / ``stepped`` / ``trending`` by comparing the
  best single-breakpoint step fit and the best linear fit against a
  penalty scaled by a robust noise estimate (1.4826 x median |first
  difference| / sqrt(2)). A ``stepped`` verdict attributes the move to
  the first run of the second segment — the run that regressed.
- **SLO layer** (:func:`load_slo_config` / :func:`evaluate_slos`): a
  declarative ``slo.toml``/dict schema (objective, window, burn-rate
  threshold) evaluated against registry history. ``max``/``min``
  objectives gate on the share of breaching runs inside the window
  (burn rate); ``stable`` objectives gate on the change-point verdict,
  breaching only on a move for the worse.

Everything here is a pure function of registry contents: series are
sorted by name, floats rounded before serialization, artifacts written
key-sorted and compact — identical registries yield byte-identical
``baseline.json``/``trend.json``/``slo.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import _schema
from repro.obs.diff import match_series, series as manifest_series, worsened
from repro.obs.registry import RunRegistry

__all__ = [
    "WATCH_SCHEMA",
    "DEFAULT_HALFLIFE_RUNS",
    "DEFAULT_ENVELOPE_K",
    "DEFAULT_PENALTY_SCALE",
    "DEFAULT_SLOS",
    "collect_series",
    "robust_baseline",
    "detect_change_point",
    "load_slo_config",
    "evaluate_slos",
    "build_watch_report",
    "render_watch",
    "watch_exit_code",
    "write_watch_artifact",
    "load_watch_artifact",
]

#: Bump when baseline/trend/slo artifact shapes change incompatibly.
WATCH_SCHEMA = 1

#: EWMA halflife for the baseline center, measured in *runs* (not time):
#: registries mix fast and slow commands, so run count is the honest axis.
DEFAULT_HALFLIFE_RUNS = 5.0

#: Envelope half-width in robust sigmas (1.4826 x MAD) around the median.
DEFAULT_ENVELOPE_K = 4.0

#: Change-point penalty multiplier on sigma^2 * log(n); larger = less
#: trigger-happy. 8.0 keeps seeded jitter stable while a 10% step on a
#: 5-run history still clears the bar by >10x.
DEFAULT_PENALTY_SCALE = 8.0

#: Rounding applied to every float in watch artifacts, for byte identity.
_ROUND = 9

_OBJECTIVES = ("max", "min", "stable")

_TREND_STATES = ("stable", "stepped", "trending")

_BASELINE_FIELDS = ("n", "last", "ewma", "median", "mad", "lo", "hi")

#: The fleet SLOs evaluated when no ``--slo`` config is given. Patterns
#: are fnmatch globs over series names; a pattern matching no series is
#: "no data", which meets the objective (absence is not a breach).
DEFAULT_SLOS: Tuple[Dict[str, Any], ...] = (
    {"name": "health-no-fail", "series": "health.fail",
     "objective": "max", "threshold": 0.0, "window": 8, "burn_rate": 0.0},
    {"name": "health-warn-budget", "series": "health.warn",
     "objective": "max", "threshold": 2.0, "window": 8, "burn_rate": 0.5},
    {"name": "ingest-reject-rate", "series": "ingest.reject_rate",
     "objective": "max", "threshold": 0.05, "window": 8, "burn_rate": 0.25},
    # Span seconds are inclusive; the SLO keeps its committed name.
    {"name": "span-self-time-stability", "series": "span_seconds[*]",
     "objective": "stable", "window": 16, "burn_rate": 0.0},
    {"name": "span-share-stability", "series": "span_share[*]",
     "objective": "stable", "window": 16, "burn_rate": 0.0},
)


class WatchConfigError(ValueError):
    """A watch input (registry, SLO config) is missing or malformed."""


# ---------------------------------------------------------------------------
# Series collection: registry history -> {name: [(seq, value), ...]}.
# ---------------------------------------------------------------------------


def collect_series(registry: RunRegistry,
                   last: int = 0) -> Dict[str, List[Tuple[int, float]]]:
    """All numeric series over registry history, keyed by series name.

    Each series is a list of ``(seq, value)`` points in recorded order:
    the recorded manifest's :func:`~repro.obs.diff.series`, plus the index
    line's ``wall_s``. ``last`` bounds history to the most recent N runs
    (0 = all). Runs whose directory or manifest has been deleted still
    contribute ``wall_s``; missing values simply leave gaps.
    """
    entries = registry.entries()
    if last > 0:
        entries = entries[-last:]
    series: Dict[str, List[Tuple[int, float]]] = {}
    for entry in entries:
        manifest = registry.read_manifest(entry)
        values = manifest_series(manifest) if manifest else {}
        if _schema.is_number(entry.get("wall_s")):
            values["wall_s"] = float(entry["wall_s"])
        for name, value in values.items():
            if math.isfinite(value):
                series.setdefault(name, []).append(
                    (int(entry.get("seq", 0)), value))
    return {name: series[name] for name in sorted(series)}


# ---------------------------------------------------------------------------
# Rolling baselines: EWMA center + median/MAD robust envelope.
# ---------------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _round(value: float) -> float:
    rounded = round(float(value), _ROUND)
    return 0.0 if rounded == 0.0 else rounded  # normalize -0.0


def robust_baseline(points: Sequence[Tuple[int, float]],
                    halflife_runs: float = DEFAULT_HALFLIFE_RUNS,
                    envelope_k: float = DEFAULT_ENVELOPE_K) -> Dict[str, Any]:
    """EWMA center plus a median +/- k*1.4826*MAD envelope for one series.

    The envelope is anchored on the *median*, not the EWMA, so a single
    outlier run cannot drag the band toward itself and self-certify.
    ``within_envelope`` reports whether the newest point sits inside.
    """
    values = [v for _, v in points]
    n = len(values)
    if n == 0:
        return {"n": 0}
    num = 0.0
    den = 0.0
    for age, value in enumerate(reversed(values)):
        weight = 0.5 ** (age / max(1e-9, halflife_runs))
        num += weight * value
        den += weight
    ewma = num / den
    median = _median(values)
    mad = _median([abs(v - median) for v in values])
    sigma = 1.4826 * mad
    lo = median - envelope_k * sigma
    hi = median + envelope_k * sigma
    last = values[-1]
    # Exactly-repeated histories collapse the band to a point; give the
    # membership test (only) a hair of slack so they stay in-envelope.
    slack = 1e-12 * max(1.0, abs(median))
    return {
        "n": n,
        "last": _round(last),
        "last_seq": int(points[-1][0]),
        "ewma": _round(ewma),
        "median": _round(median),
        "mad": _round(mad),
        "lo": _round(lo),
        "hi": _round(hi),
        "within_envelope": bool(lo - slack <= last <= hi + slack),
    }


# ---------------------------------------------------------------------------
# Change-point detection: stable / stepped / trending.
# ---------------------------------------------------------------------------


def _sse_about_mean(values: Sequence[float]) -> float:
    n = len(values)
    if n == 0:
        return 0.0
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values)


def _best_step_fit(values: Sequence[float]) -> Tuple[float, int]:
    """Minimum SSE over all single-breakpoint two-segment mean fits.

    Returns ``(sse, k)`` where the segments are ``values[:k]`` and
    ``values[k:]``. Prefix sums make the scan O(n).
    """
    n = len(values)
    prefix = [0.0]
    prefix_sq = [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
        prefix_sq.append(prefix_sq[-1] + v * v)
    best_sse = math.inf
    best_k = 1
    for k in range(1, n):
        left = prefix_sq[k] - prefix[k] ** 2 / k
        right = (prefix_sq[n] - prefix_sq[k]) \
            - (prefix[n] - prefix[k]) ** 2 / (n - k)
        sse = left + right
        if sse < best_sse - 1e-15:
            best_sse = sse
            best_k = k
    return best_sse, best_k


def _best_linear_fit(values: Sequence[float]) -> Tuple[float, float]:
    """OLS fit against the run index; returns ``(sse, slope)``."""
    n = len(values)
    xs = range(n)
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (values[x] - mean_y) for x in xs)
    slope = sxy / sxx if sxx > 0 else 0.0
    sse = sum((values[x] - (mean_y + slope * (x - mean_x))) ** 2 for x in xs)
    return sse, slope


def detect_change_point(
        points: Sequence[Tuple[int, float]],
        penalty_scale: float = DEFAULT_PENALTY_SCALE) -> Dict[str, Any]:
    """Classify one series as ``stable`` / ``stepped`` / ``trending``.

    Noise sigma comes from the median absolute first difference (robust:
    a single jump among n-1 differences cannot move the median), scaled
    by 1.4826/sqrt(2) to estimate per-point sigma. A step or linear fit
    must beat the constant-mean fit by more than
    ``penalty_scale * sigma^2 * log(n)`` to count — an MDL/BIC-style
    penalty, so longer histories require proportionally more evidence.

    ``stepped`` carries ``change_seq``: the registry seq of the first run
    *after* the breakpoint, i.e. the run that moved.
    """
    values = [v for _, v in points]
    seqs = [int(s) for s, _ in points]
    n = len(values)
    result: Dict[str, Any] = {"state": "stable", "n": n}
    if n < 5:
        result["note"] = "insufficient-history"
        return result
    spread = max(values) - min(values)
    if spread <= 1e-9 * max(1.0, abs(values[0])):
        return result  # flat to within float dust
    diffs = [abs(values[i + 1] - values[i]) for i in range(n - 1)]
    sigma = 1.4826 * _median(diffs) / math.sqrt(2.0)
    if sigma <= 0.0:
        # A series constant except for jumps: any real structure should
        # win, so fall back to a floor far below the observed spread.
        sigma = 1e-6 * spread
    sse_const = _sse_about_mean(values)
    sse_step, split = _best_step_fit(values)
    sse_linear, slope = _best_linear_fit(values)
    penalty = penalty_scale * sigma * sigma * math.log(n)
    if sse_const - min(sse_step, sse_linear) <= penalty:
        return result
    if sse_step <= sse_linear:
        before = values[:split]
        after = values[split:]
        delta = sum(after) / len(after) - sum(before) / len(before)
        result.update({
            "state": "stepped",
            "change_seq": seqs[split],
            "delta": _round(delta),
            "direction": "up" if delta > 0 else "down",
        })
    else:
        result.update({
            "state": "trending",
            "slope": _round(slope),
            "delta": _round(slope * (n - 1)),
            "direction": "up" if slope > 0 else "down",
        })
    return result


# ---------------------------------------------------------------------------
# SLO layer: declarative objectives over series, with burn rates.
# ---------------------------------------------------------------------------


def _normalize_slo(spec: Dict[str, Any], index: int) -> Dict[str, Any]:
    if not isinstance(spec, dict):
        raise WatchConfigError(f"slo[{index}]: expected a table/dict")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise WatchConfigError(f"slo[{index}]: missing 'name'")
    pattern = spec.get("series")
    if not isinstance(pattern, str) or not pattern:
        raise WatchConfigError(f"slo '{name}': missing 'series' pattern")
    objective = spec.get("objective")
    if objective not in _OBJECTIVES:
        raise WatchConfigError(
            f"slo '{name}': objective must be one of {_OBJECTIVES}")
    threshold = spec.get("threshold")
    if objective in ("max", "min"):
        if not _schema.is_number(threshold):
            raise WatchConfigError(
                f"slo '{name}': {objective} objective needs a numeric "
                f"'threshold'")
        threshold = float(threshold)
    else:
        threshold = None
    window = spec.get("window", 8)
    if not _schema.is_count(window) or window < 2:
        raise WatchConfigError(f"slo '{name}': window must be an int >= 2")
    burn = spec.get("burn_rate", 0.0)
    if not _schema.is_number(burn) or not 0.0 <= burn <= 1.0:
        raise WatchConfigError(f"slo '{name}': burn_rate must be in [0, 1]")
    known = {"name", "series", "objective", "threshold", "window",
             "burn_rate"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise WatchConfigError(f"slo '{name}': unknown keys {unknown}")
    return {
        "name": name,
        "series": pattern,
        "objective": objective,
        "threshold": threshold,
        "window": window,
        "burn_rate": float(burn),
    }


def load_slo_config(
        source: Union[str, Path, Dict[str, Any], None]) -> List[Dict[str, Any]]:
    """Normalize an SLO config from a ``.toml``/``.json`` path or a dict.

    The canonical shape is ``{"slo": [{name, series, objective, ...}]}``
    (TOML ``[[slo]]`` tables). ``None`` yields :data:`DEFAULT_SLOS`.
    Raises :class:`WatchConfigError` on any schema violation, including
    duplicate SLO names.
    """
    if source is None:
        data: Dict[str, Any] = {"slo": [dict(s) for s in DEFAULT_SLOS]}
    elif isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise WatchConfigError(f"cannot read SLO config: {exc}") from exc
        if path.suffix.lower() == ".toml":
            import tomllib
            loads, fmt = tomllib.loads, "TOML"
        else:
            loads, fmt = json.loads, "JSON"
        try:
            data = loads(text)
        except ValueError as exc:  # a TOMLDecodeError is a ValueError
            raise WatchConfigError(f"bad {fmt} in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise WatchConfigError(f"{path}: top level must be a table")
    specs = data.get("slo")
    if not isinstance(specs, list) or not specs:
        raise WatchConfigError("SLO config needs a non-empty [[slo]] list")
    normalized = [_normalize_slo(spec, i) for i, spec in enumerate(specs)]
    names = [s["name"] for s in normalized]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise WatchConfigError(f"duplicate slo names: {dupes}")
    return normalized


def _eval_budget_slo(slo: Dict[str, Any],
                     name: str,
                     points: Sequence[Tuple[int, float]]) -> Dict[str, Any]:
    window = points[-slo["window"]:]
    threshold = slo["threshold"]
    if slo["objective"] == "max":
        breaching = [int(s) for s, v in window if v > threshold + 1e-12]
    else:
        breaching = [int(s) for s, v in window if v < threshold - 1e-12]
    observed = len(breaching) / len(window)
    return {
        "series": name,
        "n": len(window),
        "observed_burn_rate": _round(observed),
        "breaching_seqs": breaching,
        "met": bool(observed <= slo["burn_rate"] + 1e-12),
    }


def _eval_stable_slo(slo: Dict[str, Any],
                     name: str,
                     points: Sequence[Tuple[int, float]]) -> Dict[str, Any]:
    analysis = detect_change_point(points[-slo["window"]:])
    state = analysis.get("state", "stable")
    # Only a move for the worse breaches stability; a step toward the
    # series' better side is an improvement worth seeing, not a page.
    moved_worse = state != "stable" and \
        worsened(name, analysis.get("direction") == "up")
    detail: Dict[str, Any] = {
        "series": name,
        "n": analysis.get("n", len(points)),
        "state": state,
        "met": not moved_worse,
    }
    for key in ("change_seq", "delta", "slope", "direction", "note"):
        if key in analysis:
            detail[key] = analysis[key]
    return detail


def evaluate_slos(slos: Sequence[Dict[str, Any]],
                  series: Dict[str, List[Tuple[int, float]]]) -> Dict[str, Any]:
    """Evaluate every SLO against collected series.

    Returns the ``watch-slo`` artifact payload. Pattern matching is
    fnmatch over sorted series names; an SLO whose pattern matches no
    series is reported ``met`` with ``"no-data"`` — a registry that never
    produced a series cannot breach an objective about it.
    """
    names = sorted(series)
    results: List[Dict[str, Any]] = []
    breaches: List[Dict[str, Any]] = []
    for slo in slos:
        matched = [n for n in names if match_series(n, slo["series"])]
        details: List[Dict[str, Any]] = []
        for name in matched:
            points = series[name]
            if slo["objective"] == "stable":
                details.append(_eval_stable_slo(slo, name, points))
            else:
                details.append(_eval_budget_slo(slo, name, points))
        met = all(d["met"] for d in details) if details else True
        result = {
            "name": slo["name"],
            "objective": slo["objective"],
            "series_pattern": slo["series"],
            "window": slo["window"],
            "burn_rate": slo["burn_rate"],
            "met": met,
            "series": details,
        }
        if slo["threshold"] is not None:
            result["threshold"] = slo["threshold"]
        if not details:
            result["note"] = "no-data"
        results.append(result)
        for detail in details:
            if not detail["met"]:
                breach = {"slo": slo["name"], "series": detail["series"]}
                for key in ("state", "change_seq", "delta",
                            "observed_burn_rate", "breaching_seqs"):
                    if key in detail:
                        breach[key] = detail[key]
                breaches.append(breach)
    return {
        "schema": WATCH_SCHEMA,
        "kind": "watch-slo",
        "slos": results,
        "breaches": breaches,
        "met": not breaches,
    }


# ---------------------------------------------------------------------------
# Report assembly.
# ---------------------------------------------------------------------------


def build_watch_report(registry: RunRegistry,
                       slos: Optional[Sequence[Dict[str, Any]]] = None,
                       last: int = 0,
                       halflife_runs: float = DEFAULT_HALFLIFE_RUNS,
                       envelope_k: float = DEFAULT_ENVELOPE_K,
                       penalty_scale: float = DEFAULT_PENALTY_SCALE
                       ) -> Dict[str, Any]:
    """Baselines + change-points + SLO verdicts for one registry.

    Returns ``{"n_runs", "baseline", "trend", "slo"}`` where the three
    artifact payloads each carry their own ``kind``. Series are analyzed
    in sorted-name order, so identical registries yield byte-identical
    artifacts.
    """
    entries = registry.entries()
    if not entries:
        raise WatchConfigError(
            f"no recorded runs under {registry.runs_dir} "
            f"(missing or empty index.jsonl)")
    slos = load_slo_config(None) if slos is None else list(slos)
    series = collect_series(registry, last=last)
    baselines = {name: robust_baseline(points, halflife_runs, envelope_k)
                 for name, points in series.items()}
    trends = {name: detect_change_point(points, penalty_scale)
              for name, points in series.items()}
    n_runs = len(entries if last <= 0 else entries[-last:])
    baseline_payload = {
        "schema": WATCH_SCHEMA,
        "kind": "watch-baseline",
        "n_runs": n_runs,
        "halflife_runs": halflife_runs,
        "envelope_k": envelope_k,
        "series": baselines,
    }
    trend_payload = {
        "schema": WATCH_SCHEMA,
        "kind": "watch-trend",
        "n_runs": n_runs,
        "penalty_scale": penalty_scale,
        "series": trends,
    }
    slo_payload = evaluate_slos(slos, series)
    slo_payload["n_runs"] = n_runs
    return {
        "n_runs": n_runs,
        "n_series": len(series),
        "baseline": baseline_payload,
        "trend": trend_payload,
        "slo": slo_payload,
    }


def write_watch_artifact(payload: Dict[str, Any],
                         path: Union[str, Path]) -> Path:
    """Atomically write one watch artifact, key-sorted and compact.

    Byte identity contract: the same payload always serializes to the
    same bytes (sorted keys, no whitespace, trailing newline).
    """
    return _schema.write_json(payload, path)


def _baseline_violations(payload: Dict[str, Any], where: str) -> List[str]:
    """Each series: ``n >= 1``, numeric fields, ``lo <= hi``, ``mad >= 0``."""
    errors = []
    for name, cell in payload["series"].items():
        if _schema.missing(cell, (*_BASELINE_FIELDS, "within_envelope")) \
                or not all(map(_schema.is_number,
                               (cell[k] for k in _BASELINE_FIELDS))) \
                or not _schema.is_count(cell["n"]) or cell["n"] < 1:
            errors.append(f"{where}: series {name!r} lacks numeric "
                          f"{_BASELINE_FIELDS}")
        elif cell["lo"] > cell["hi"] or cell["mad"] < 0:
            errors.append(f"{where}: series {name!r} has lo > hi or a "
                          f"negative mad")
    return errors


def _trend_violations(payload: Dict[str, Any], where: str) -> List[str]:
    """Each series: a known state; a stepped one names its
    ``change_seq``, a moving one its direction."""
    errors = []
    for name, cell in payload["series"].items():
        cell = cell if isinstance(cell, dict) else {}
        state = cell.get("state")
        if state not in _TREND_STATES:
            errors.append(f"{where}: series {name!r} has bad state {state!r}")
        elif state == "stepped" and \
                not _schema.is_count(cell.get("change_seq")):
            errors.append(f"{where}: stepped series {name!r} has no "
                          f"change_seq")
        elif state != "stable" and cell.get("direction") not in ("up", "down"):
            errors.append(f"{where}: series {name!r} has no direction")
    return errors


def _slo_violations(payload: Dict[str, Any], where: str) -> List[str]:
    """Each SLO's ``met`` agrees with its series details, and the report's
    ``met`` with its SLOs and its breach list."""
    errors = []
    unmet = 0
    for i, slo in enumerate(payload["slos"]):
        details = slo.get("series") if isinstance(slo, dict) else None
        if not isinstance(details, list) or not slo.get("name") or \
                slo.get("objective") not in _OBJECTIVES or \
                not isinstance(slo.get("met"), bool):
            errors.append(f"{where}: slo {i} lacks a name, a known "
                          f"objective, a bool met or a series list")
            continue
        burns = [slo.get("burn_rate")] + [
            d.get("observed_burn_rate", 0.0) for d in details
            if isinstance(d, dict)]
        if not all(_schema.is_number(b) and 0.0 <= b <= 1.0 for b in burns):
            errors.append(f"{where}: slo {i} has a burn rate outside [0, 1]")
        if slo["met"] == any(isinstance(d, dict) and d.get("met") is False
                             for d in details):
            errors.append(f"{where}: slo {slo['name']!r} met={slo['met']} "
                          f"disagrees with its series details")
        unmet += not slo["met"]
    met, breaches = payload.get("met"), payload.get("breaches")
    if met is not (unmet == 0) or not isinstance(breaches, list) \
            or bool(breaches) == met:
        errors.append(f"{where}: report met={met!r} disagrees with its slos "
                      f"or its breaches")
    return errors


#: Per artifact kind: the collection that must be non-empty, its type,
#: and the kind's consistency checks.
_WATCH_KINDS = {
    "watch-baseline": ("series", dict, _baseline_violations),
    "watch-trend": ("series", dict, _trend_violations),
    "watch-slo": ("slos", list, _slo_violations),
}


def load_watch_artifact(source: Any, kind: str) -> Dict[str, Any]:
    """Read one watch artifact back (a path or a parsed payload),
    validating it on read as ``kind`` (``watch-baseline``, ``-trend`` or
    ``-slo``)."""
    payload, where, errors = _schema.read_object(source, kind, WATCH_SCHEMA)
    key, shape, violations = _WATCH_KINDS[kind]
    if payload.get("kind") != kind:
        errors.append(f"{where}: kind != {kind!r}")
    if not isinstance(payload.get(key), shape) or not payload[key]:
        errors.append(f"{where}: {key} missing or empty")
    _schema.raise_if(errors or violations(payload, where))
    return payload


# ---------------------------------------------------------------------------
# Rendering + exit code for ``autosens watch``.
# ---------------------------------------------------------------------------


def _describe_drift(trend: Dict[str, Any]) -> str:
    state = trend.get("state", "stable")
    if state == "stepped":
        return (f"stepped {trend.get('direction', '?')} at "
                f"seq {trend.get('change_seq', '?')} "
                f"(delta {trend.get('delta', 0.0):+g})")
    if state == "trending":
        return (f"trending {trend.get('direction', '?')} "
                f"(slope {trend.get('slope', 0.0):+g}/run)")
    return "stable"


def render_watch(report: Dict[str, Any]) -> str:
    """Human rendering of one watch evaluation: drift, then SLO verdicts."""
    lines = [f"fleet watch: {report.get('n_runs', 0)} runs, "
             f"{report.get('n_series', 0)} series"]
    trends = report.get("trend", {}).get("series", {})
    moved = {name: t for name, t in sorted(trends.items())
             if t.get("state") != "stable"}
    baselines = report.get("baseline", {}).get("series", {})
    escaped = {name: b for name, b in sorted(baselines.items())
               if b.get("within_envelope") is False and name not in moved}
    lines.append("drift:")
    if not moved and not escaped:
        lines.append(f"  all {len(trends)} series stable")
    for name, trend in moved.items():
        lines.append(f"  {name}: {_describe_drift(trend)}")
    for name, baseline in escaped.items():
        lines.append(
            f"  {name}: last {baseline.get('last')} outside envelope "
            f"[{baseline.get('lo')}, {baseline.get('hi')}]")
    lines.append("slos:")
    for slo in report.get("slo", {}).get("slos", []):
        status = "ok    " if slo.get("met") else "BREACH"
        desc = f"{slo.get('objective')}"
        if slo.get("threshold") is not None:
            sign = "<=" if slo.get("objective") == "max" else ">="
            desc += f" {sign} {slo.get('threshold'):g}"
        if slo.get("note") == "no-data":
            desc += "  (no data)"
        lines.append(f"  [{status}] {slo.get('name')}  {desc}")
        for detail in slo.get("series", []):
            if detail.get("met"):
                continue
            if "state" in detail:
                lines.append(
                    f"           {detail.get('series')}: "
                    f"{_describe_drift(detail)}")
            else:
                lines.append(
                    f"           {detail.get('series')}: burn rate "
                    f"{detail.get('observed_burn_rate', 0.0):g} > "
                    f"{slo.get('burn_rate', 0.0):g} allowed "
                    f"(breaching seqs {detail.get('breaching_seqs')})")
    slo_payload = report.get("slo", {})
    total = len(slo_payload.get("slos", []))
    met = sum(1 for s in slo_payload.get("slos", []) if s.get("met"))
    lines.append(f"summary: {met}/{total} SLOs met")
    return "\n".join(lines)


def watch_exit_code(report: Dict[str, Any]) -> int:
    """0 when every SLO is met; 1 on any breach (the ``--check`` gate)."""
    return 0 if report.get("slo", {}).get("met", False) else 1
