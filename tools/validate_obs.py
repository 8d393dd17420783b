#!/usr/bin/env python
"""Validate observability artifacts against their schemas (CI gate).

Checks any combination of the artifact kinds the CLI emits::

    PYTHONPATH=src python tools/validate_obs.py \\
        --trace out/trace.json --metrics out/metrics.prom \\
        --manifest out/manifest.json --health out/health.json \\
        --profile out/profile.json --diff out/diff.json

- ``--trace``: a Chrome ``trace_event`` file (``*.json``) or a span JSONL
  file (``*.jsonl``). Every event/record must carry the trace schema
  version and the required span fields, and parents must resolve.
- ``--metrics``: a Prometheus text file (``*.prom``/``*.txt``) — every
  sample line must parse and belong to a declared ``# TYPE``, and every
  histogram series must carry a well-formed ``# QUANTILE`` summary line —
  or a JSON snapshot (``*.json``) whose histogram series each embed
  monotone ``p50 <= p90 <= p99`` quantiles.
- ``--manifest``: a run manifest; validated through
  :func:`repro.obs.manifest.load_manifest` plus required-field checks
  (including the embedded health report when present).
- ``--health``: an ``autosens doctor`` health report — schema, verdict,
  per-finding fields, and stage verdicts consistent with the findings.
- ``--profile``: a span profile — schema, per-span resource fields,
  folded-stack line format, top table sorted by self CPU.
- ``--diff``: an ``autosens obs diff`` report — schema, classification
  vocabulary, and a summary that tallies the entries exactly.
- ``--sensitivity``: an ``autosens sensitivity`` frontier artifact —
  schema, verdict vocabulary, per-cell gate consistency, and a frontier
  gate that agrees with its cells.
- ``--progress``: a ``/progress`` snapshot (or recorded ``progress.json``)
  — schema, state vocabulary, per-stage ``done <= total``, non-negative
  rates/ETAs, and event counters.
- ``--events``: a ``/events`` NDJSON tail (or recorded ``events.ndjson``)
  — every line parses, carries the events schema, a type from the closed
  vocabulary, and strictly increasing sequence numbers.
- ``--registry``: a ``--runs-dir`` registry (the directory or its
  ``index.jsonl``) — schema-stamped index lines with strictly increasing
  sequence numbers, each pointing at a run directory whose manifest
  validates.
- ``--baseline`` / ``--trend`` / ``--slo``: ``autosens watch`` artifacts —
  watch schema + kind stamps, per-series baseline fields with sane
  envelopes, change-point states from the closed vocabulary (a stepped
  series must carry its ``change_seq``), and SLO verdicts whose ``met``
  flags agree with their per-series details and breach list.
- ``--summary``: an ``autosens obs summary --format json`` payload — a
  list of ``[field, value]`` rows covering the manifest essentials.

Exit status 0 when everything validates, 1 with one line per violation
otherwise (drift between a summary and its entries, an out-of-order top
table, an inconsistent verdict — all exit non-zero). Zero third-party
dependencies, same as ``repro.obs`` itself.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.diff import DIFF_SCHEMA  # noqa: E402
from repro.obs.events import EVENT_TYPES, EVENTS_SCHEMA  # noqa: E402
from repro.obs.health import HEALTH_SCHEMA  # noqa: E402
from repro.obs.manifest import MANIFEST_SCHEMA, load_manifest  # noqa: E402
from repro.obs.profile import PROFILE_SCHEMA  # noqa: E402
from repro.obs.progress import PROGRESS_SCHEMA, STATES  # noqa: E402
from repro.obs.registry import REGISTRY_SCHEMA  # noqa: E402
from repro.obs.trace import TRACE_SCHEMA  # noqa: E402
from repro.obs.watch import WATCH_SCHEMA  # noqa: E402

SPAN_FIELDS = ("name", "id", "parent", "path", "tid", "start_us", "dur_us",
               "attrs")
EVENT_FIELDS = ("ph", "name", "cat", "ts", "dur", "pid", "tid", "args")
MANIFEST_FIELDS = ("schema", "run_id", "experiment_id", "seed",
                   "config_fingerprint", "deterministic", "python",
                   "packages", "inputs", "degradations", "ingest", "metrics")

_PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})?'
    r' (?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$'
)

_PROM_QUANTILE = re.compile(
    r'^# QUANTILE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})?'
    r'(?P<pairs>( p\d+=[0-9eE+.\-]+|\ p\d+=NaN)+)$'
)

_FOLDED_STACK = re.compile(r'^\S.* \d+$')

SEVERITIES = ("ok", "warn", "fail")
FINDING_FIELDS = ("probe", "stage", "severity", "message")
PROFILE_SPAN_FIELDS = ("count", "cpu_self_s", "cpu_total_s", "wall_s",
                       "rss_peak_kb")
DIFF_CLASSIFICATIONS = ("improved", "regressed", "unchanged", "added",
                        "removed")
# Inlined from repro.analysis.sensitivity (importing it would pull numpy
# into this zero-dependency validator); the test suite asserts they match.
SENSITIVITY_SCHEMA = "autosens.sensitivity/v1"
SENSITIVITY_VERDICTS = ("robust", "degraded-explained", "silent-bias")
SENSITIVITY_CELL_FIELDS = ("level", "verdict", "gate_passed", "n_actions",
                           "bias_linf", "bias_signed_area",
                           "ci_band_inflation", "n_compared_bins", "health")


def _validate_span_jsonl(path: Path) -> list:
    errors = []
    ids = set()
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{lineno}: not JSON ({exc})")
            continue
        if record.get("schema") != TRACE_SCHEMA:
            errors.append(f"{path}:{lineno}: schema != {TRACE_SCHEMA}")
        missing = [f for f in SPAN_FIELDS if f not in record]
        if missing:
            errors.append(f"{path}:{lineno}: missing fields {missing}")
            continue
        ids.add(record["id"])
        records.append((lineno, record))
    for lineno, record in records:
        parent = record["parent"]
        if parent is not None and parent not in ids:
            errors.append(f"{path}:{lineno}: parent {parent!r} not in file")
    if not records and not errors:
        errors.append(f"{path}: no span records")
    return errors


def _validate_chrome_trace(path: Path) -> list:
    errors = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: not JSON ({exc})"]
    other = payload.get("otherData", {})
    if other.get("schema") != TRACE_SCHEMA:
        errors.append(f"{path}: otherData.schema != {TRACE_SCHEMA}")
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return errors + [f"{path}: traceEvents missing or empty"]
    span_ids = {e.get("args", {}).get("span_id") for e in events}
    for i, event in enumerate(events):
        missing = [f for f in EVENT_FIELDS if f not in event]
        if missing:
            errors.append(f"{path}: event {i} missing fields {missing}")
            continue
        if event["ph"] != "X":
            errors.append(f"{path}: event {i} has phase {event['ph']!r}")
        parent = event["args"].get("parent_id")
        if parent is not None and parent not in span_ids:
            errors.append(f"{path}: event {i} parent {parent!r} unresolved")
    return errors


def _validate_metrics_prom(path: Path) -> list:
    errors = []
    declared = set()
    histograms = set()
    quantile_names = set()
    samples = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                errors.append(f"{path}:{lineno}: malformed TYPE line")
            else:
                declared.add(parts[2])
                if parts[3] == "histogram":
                    histograms.add(parts[2])
            continue
        if line.startswith("# QUANTILE "):
            match = _PROM_QUANTILE.match(line)
            if match is None:
                errors.append(f"{path}:{lineno}: malformed QUANTILE line")
            else:
                quantile_names.add(match.group("name"))
            continue
        if line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            errors.append(f"{path}:{lineno}: unparseable sample {line!r}")
            continue
        samples += 1
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and base not in declared:
            errors.append(f"{path}:{lineno}: {name} has no # TYPE declaration")
    for name in sorted(histograms - quantile_names):
        errors.append(f"{path}: histogram {name} has no # QUANTILE summary")
    if samples == 0 and not errors:
        errors.append(f"{path}: no metric samples")
    return errors


def _check_quantiles(owner: str, quantiles) -> list:
    if not isinstance(quantiles, dict):
        return [f"{owner}: quantiles missing"]
    missing = [k for k in ("p50", "p90", "p99") if k not in quantiles]
    if missing:
        return [f"{owner}: quantiles missing {missing}"]
    p50, p90, p99 = (quantiles[k] for k in ("p50", "p90", "p99"))
    if not (p50 <= p90 <= p99):
        return [f"{owner}: quantiles not monotone ({p50}, {p90}, {p99})"]
    return []


def _validate_metrics_json(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if not isinstance(payload, dict) or not payload:
        return [f"{path}: snapshot missing or empty"]
    for name, entry in payload.items():
        if entry.get("kind") not in ("counter", "gauge", "histogram"):
            errors.append(f"{path}: {name} has bad kind {entry.get('kind')!r}")
        if not isinstance(entry.get("series"), dict):
            errors.append(f"{path}: {name} has no series map")
        elif entry.get("kind") == "histogram":
            for labels, series in entry["series"].items():
                errors += _check_quantiles(
                    f"{path}: {name}{labels}",
                    series.get("quantiles") if isinstance(series, dict)
                    else None)
    return errors


def _validate_manifest(path: Path) -> list:
    from repro.errors import SchemaError

    try:
        manifest = load_manifest(path)
    except SchemaError as exc:
        return [str(exc)]
    errors = []
    missing = [f for f in MANIFEST_FIELDS if f not in manifest]
    if missing:
        errors.append(f"{path}: missing fields {missing}")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"{path}: schema != {MANIFEST_SCHEMA}")
    if manifest.get("deterministic") and "created_at" in manifest:
        errors.append(f"{path}: deterministic manifest carries created_at")
    if "health" in manifest:
        errors += _check_health_payload(f"{path} (embedded)",
                                        manifest["health"])
    return errors


def _check_health_payload(owner: str, payload) -> list:
    if not isinstance(payload, dict):
        return [f"{owner}: health report is not an object"]
    errors = []
    if payload.get("schema") != HEALTH_SCHEMA:
        errors.append(f"{owner}: health schema != {HEALTH_SCHEMA}")
    if payload.get("verdict") not in SEVERITIES:
        errors.append(f"{owner}: bad verdict {payload.get('verdict')!r}")
    findings = payload.get("findings")
    if not isinstance(findings, list):
        return errors + [f"{owner}: findings missing"]
    worst_by_stage = {}
    rank = {s: i for i, s in enumerate(SEVERITIES)}
    for i, finding in enumerate(findings):
        missing = [f for f in FINDING_FIELDS if f not in finding]
        if missing:
            errors.append(f"{owner}: finding {i} missing fields {missing}")
            continue
        if finding["severity"] not in SEVERITIES:
            errors.append(
                f"{owner}: finding {i} has bad severity "
                f"{finding['severity']!r}")
            continue
        stage = finding["stage"]
        worst_by_stage.setdefault(stage, "ok")
        if rank[finding["severity"]] > rank[worst_by_stage[stage]]:
            worst_by_stage[stage] = finding["severity"]
    stages = payload.get("stages")
    if isinstance(stages, dict) and stages != worst_by_stage:
        errors.append(
            f"{owner}: stage verdicts {stages} disagree with the findings "
            f"({worst_by_stage})")
    counts = payload.get("counts")
    if isinstance(counts, dict):
        tally = {s: 0 for s in SEVERITIES}
        for finding in findings:
            tally[finding.get("severity", "warn")] = (
                tally.get(finding.get("severity", "warn"), 0) + 1)
        if counts != tally:
            errors.append(f"{owner}: counts {counts} disagree with the "
                          f"findings ({tally})")
    return errors


def _validate_health(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    return _check_health_payload(str(path), payload)


def _validate_profile(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != PROFILE_SCHEMA:
        errors.append(f"{path}: schema != {PROFILE_SCHEMA}")
    spans = payload.get("spans")
    if not isinstance(spans, dict):
        return errors + [f"{path}: spans missing"]
    for name, entry in spans.items():
        missing = [f for f in PROFILE_SPAN_FIELDS if f not in entry]
        if missing:
            errors.append(f"{path}: span {name!r} missing fields {missing}")
            continue
        if entry["cpu_self_s"] > entry["cpu_total_s"] + 1e-6:
            errors.append(
                f"{path}: span {name!r} self CPU exceeds total CPU")
    top = payload.get("top", [])
    self_times = [row.get("cpu_self_s", 0.0) for row in top]
    if self_times != sorted(self_times, reverse=True):
        errors.append(f"{path}: top table is not sorted by self CPU")
    for key in ("folded_spans", "folded_stacks"):
        for i, line in enumerate(payload.get(key, [])):
            if not _FOLDED_STACK.match(line):
                errors.append(f"{path}: {key}[{i}] is not 'stack count'")
    return errors


def _validate_diff(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != DIFF_SCHEMA:
        errors.append(f"{path}: schema != {DIFF_SCHEMA}")
    if payload.get("kind") not in ("manifest", "metrics", "curve", "health",
                                   "sensitivity", "watch-baseline",
                                   "watch-trend"):
        errors.append(f"{path}: bad kind {payload.get('kind')!r}")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        return errors + [f"{path}: entries missing"]
    tally = {c: 0 for c in DIFF_CLASSIFICATIONS}
    for i, entry in enumerate(entries):
        cls = entry.get("classification")
        if cls not in DIFF_CLASSIFICATIONS:
            errors.append(f"{path}: entry {i} has bad classification {cls!r}")
            continue
        tally[cls] += 1
        if "key" not in entry:
            errors.append(f"{path}: entry {i} has no key")
    summary = payload.get("summary")
    if isinstance(summary, dict) and {
        k: summary.get(k, 0) for k in DIFF_CLASSIFICATIONS
    } != tally:
        errors.append(
            f"{path}: summary {summary} disagrees with the entries ({tally})")
    return errors


def _validate_sensitivity(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != SENSITIVITY_SCHEMA:
        errors.append(f"{path}: schema != {SENSITIVITY_SCHEMA}")
    if not payload.get("fixture"):
        errors.append(f"{path}: fixture name missing")
    clean = payload.get("clean")
    if not isinstance(clean, dict):
        errors.append(f"{path}: clean twin missing")
    elif not isinstance(clean.get("n_actions"), int) or clean["n_actions"] < 0:
        errors.append(
            f"{path}: clean twin has bad n_actions "
            f"{clean.get('n_actions')!r}")
    if isinstance(clean, dict) and isinstance(clean.get("health"), dict):
        errors += _check_health_cell(f"{path}: clean", clean["health"])
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        return errors + [f"{path}: cells missing or empty"]
    all_gates = []
    for i, cell in enumerate(cells):
        missing = [f for f in SENSITIVITY_CELL_FIELDS if f not in cell]
        if missing:
            errors.append(f"{path}: cell {i} missing fields {missing}")
            continue
        verdict = cell["verdict"]
        if verdict not in SENSITIVITY_VERDICTS:
            errors.append(f"{path}: cell {i} has bad verdict {verdict!r}")
            continue
        gate = cell["gate_passed"]
        all_gates.append(bool(gate))
        if bool(gate) != (verdict != "silent-bias"):
            errors.append(
                f"{path}: cell {i} gate_passed {gate!r} disagrees with "
                f"its verdict {verdict!r}")
        level = cell["level"]
        if not isinstance(level, (int, float)) or not 0.0 <= level <= 1.0:
            errors.append(f"{path}: cell {i} has bad level {level!r}")
        if isinstance(cell.get("health"), dict):
            errors += _check_health_cell(f"{path}: cell {i}", cell["health"])
    frontier_gate = payload.get("gate_passed")
    if all_gates and bool(frontier_gate) != all(all_gates):
        errors.append(
            f"{path}: frontier gate_passed {frontier_gate!r} disagrees "
            f"with its cells ({all_gates})")
    return errors


def _check_health_cell(owner: str, health) -> list:
    """A frontier cell's health summary: verdict + counts only."""
    errors = []
    if health.get("verdict") not in SEVERITIES:
        errors.append(f"{owner}: bad health verdict "
                      f"{health.get('verdict')!r}")
    counts = health.get("counts")
    if not isinstance(counts, dict) or any(
            not isinstance(counts.get(k), int) or counts.get(k, 0) < 0
            for k in SEVERITIES):
        errors.append(f"{owner}: health counts missing or negative")
    return errors


def _validate_progress(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != PROGRESS_SCHEMA:
        errors.append(f"{path}: schema != {PROGRESS_SCHEMA}")
    if payload.get("state") not in STATES:
        errors.append(f"{path}: bad state {payload.get('state')!r}")
    elapsed = payload.get("elapsed_s")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        errors.append(f"{path}: bad elapsed_s {elapsed!r}")
    stages = payload.get("stages")
    if not isinstance(stages, dict):
        return errors + [f"{path}: stages missing"]
    for name, stage in stages.items():
        done = stage.get("done")
        total = stage.get("total")
        if not isinstance(done, int) or done < 0:
            errors.append(f"{path}: stage {name!r} has bad done {done!r}")
            continue
        if total is not None and (not isinstance(total, int) or done > total):
            errors.append(
                f"{path}: stage {name!r} has done {done} > total {total}")
        for key in ("rate_per_s", "eta_s"):
            value = stage.get(key)
            if value is not None and (
                    not isinstance(value, (int, float)) or value < 0):
                errors.append(f"{path}: stage {name!r} has bad {key} "
                              f"{value!r}")
    counters = payload.get("events")
    if not isinstance(counters, dict) or any(
            not isinstance(counters.get(k), int) or counters.get(k, 0) < 0
            for k in ("seen", "dropped")):
        errors.append(f"{path}: events counters missing or negative")
    return errors


def _validate_events(path: Path) -> list:
    errors = []
    last_seq = 0
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{lineno}: not JSON ({exc})")
            continue
        if event.get("schema") != EVENTS_SCHEMA:
            errors.append(f"{path}:{lineno}: schema != {EVENTS_SCHEMA}")
        if event.get("type") not in EVENT_TYPES:
            errors.append(
                f"{path}:{lineno}: type {event.get('type')!r} not in the "
                "event vocabulary")
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            errors.append(f"{path}:{lineno}: seq {seq!r} not strictly "
                          f"increasing (after {last_seq})")
        else:
            last_seq = seq
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts <= 0:
            errors.append(f"{path}:{lineno}: bad ts {ts!r}")
    if not lines:
        errors.append(f"{path}: no events")
    return errors


def _validate_registry(path: Path) -> list:
    runs_dir = path if path.is_dir() else path.parent
    index = runs_dir / "index.jsonl" if path.is_dir() else path
    if not index.is_file():
        return [f"{index}: registry index missing"]
    errors = []
    last_seq = 0
    entries = 0
    for lineno, line in enumerate(index.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{index}:{lineno}: not JSON ({exc})")
            continue
        entries += 1
        if entry.get("schema") != REGISTRY_SCHEMA:
            errors.append(f"{index}:{lineno}: schema != {REGISTRY_SCHEMA}")
        seq = entry.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            errors.append(f"{index}:{lineno}: seq {seq!r} not strictly "
                          f"increasing (after {last_seq})")
        else:
            last_seq = seq
        run_dir = runs_dir / str(entry.get("dir", ""))
        if not run_dir.is_dir():
            errors.append(f"{index}:{lineno}: run dir {run_dir} missing")
            continue
        errors += _validate_manifest(run_dir / "manifest.json")
    if entries == 0 and not errors:
        errors.append(f"{index}: no registry entries")
    return errors


_BASELINE_SERIES_FIELDS = ("n", "last", "ewma", "median", "mad", "lo", "hi",
                           "within_envelope")
_TREND_STATES = ("stable", "stepped", "trending")
_SLO_OBJECTIVES = ("max", "min", "stable")


def _validate_baseline(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != WATCH_SCHEMA:
        errors.append(f"{path}: schema != {WATCH_SCHEMA}")
    if payload.get("kind") != "watch-baseline":
        errors.append(f"{path}: kind != 'watch-baseline'")
    series = payload.get("series")
    if not isinstance(series, dict) or not series:
        return errors + [f"{path}: series missing or empty"]
    for name, cell in series.items():
        if not isinstance(cell, dict):
            errors.append(f"{path}: series {name!r} is not an object")
            continue
        n = cell.get("n")
        if not isinstance(n, int) or n < 1:
            errors.append(f"{path}: series {name!r} has bad n {n!r}")
            continue
        missing = [f for f in _BASELINE_SERIES_FIELDS if f not in cell]
        if missing:
            errors.append(f"{path}: series {name!r} missing fields {missing}")
            continue
        for key in ("last", "ewma", "median", "mad", "lo", "hi"):
            if not isinstance(cell[key], (int, float)):
                errors.append(
                    f"{path}: series {name!r} has bad {key} {cell[key]!r}")
        if isinstance(cell["lo"], (int, float)) and \
                isinstance(cell["hi"], (int, float)) and \
                cell["lo"] > cell["hi"]:
            errors.append(f"{path}: series {name!r} envelope lo > hi")
        if isinstance(cell["mad"], (int, float)) and cell["mad"] < 0:
            errors.append(f"{path}: series {name!r} has negative mad")
    return errors


def _validate_trend(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != WATCH_SCHEMA:
        errors.append(f"{path}: schema != {WATCH_SCHEMA}")
    if payload.get("kind") != "watch-trend":
        errors.append(f"{path}: kind != 'watch-trend'")
    series = payload.get("series")
    if not isinstance(series, dict) or not series:
        return errors + [f"{path}: series missing or empty"]
    for name, cell in series.items():
        state = cell.get("state") if isinstance(cell, dict) else None
        if state not in _TREND_STATES:
            errors.append(f"{path}: series {name!r} has bad state {state!r}")
            continue
        if state == "stepped" and not isinstance(cell.get("change_seq"), int):
            errors.append(f"{path}: stepped series {name!r} has no "
                          f"change_seq")
        if state in ("stepped", "trending") and \
                cell.get("direction") not in ("up", "down"):
            errors.append(f"{path}: series {name!r} has bad direction "
                          f"{cell.get('direction')!r}")
    return errors


def _validate_slo(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if payload.get("schema") != WATCH_SCHEMA:
        errors.append(f"{path}: schema != {WATCH_SCHEMA}")
    if payload.get("kind") != "watch-slo":
        errors.append(f"{path}: kind != 'watch-slo'")
    slos = payload.get("slos")
    if not isinstance(slos, list) or not slos:
        return errors + [f"{path}: slos missing or empty"]
    any_unmet = False
    for i, slo in enumerate(slos):
        name = slo.get("name") if isinstance(slo, dict) else None
        if not isinstance(name, str) or not name:
            errors.append(f"{path}: slo {i} has no name")
            continue
        if slo.get("objective") not in _SLO_OBJECTIVES:
            errors.append(f"{path}: slo {name!r} has bad objective "
                          f"{slo.get('objective')!r}")
        burn = slo.get("burn_rate")
        if not isinstance(burn, (int, float)) or not 0.0 <= burn <= 1.0:
            errors.append(f"{path}: slo {name!r} has bad burn_rate {burn!r}")
        if not isinstance(slo.get("met"), bool):
            errors.append(f"{path}: slo {name!r} has non-bool met")
            continue
        details = slo.get("series", [])
        if not isinstance(details, list):
            errors.append(f"{path}: slo {name!r} series is not a list")
            continue
        unmet = [d for d in details
                 if isinstance(d, dict) and d.get("met") is False]
        if slo["met"] != (not unmet):
            errors.append(f"{path}: slo {name!r} met={slo['met']} disagrees "
                          f"with its series details")
        for d in details:
            observed = d.get("observed_burn_rate") if isinstance(d, dict) \
                else None
            if observed is not None and (
                    not isinstance(observed, (int, float))
                    or not 0.0 <= observed <= 1.0):
                errors.append(f"{path}: slo {name!r} has bad "
                              f"observed_burn_rate {observed!r}")
        any_unmet = any_unmet or not slo["met"]
    met = payload.get("met")
    if not isinstance(met, bool) or met != (not any_unmet):
        errors.append(f"{path}: report met={met!r} disagrees with its slos")
    breaches = payload.get("breaches")
    if not isinstance(breaches, list):
        errors.append(f"{path}: breaches missing")
    elif bool(breaches) == bool(met):
        errors.append(f"{path}: met={met!r} but {len(breaches)} breach(es)")
    return errors


def _validate_summary(path: Path) -> list:
    """An ``autosens obs summary --format json`` payload: a list of
    ``[field, value]`` string pairs covering the manifest essentials."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: not JSON ({exc})"]
    errors = []
    if not isinstance(payload, list) or not payload:
        return [f"{path}: expected a non-empty list of [field, value] rows"]
    fields = []
    for i, row in enumerate(payload):
        if (not isinstance(row, (list, tuple)) or len(row) != 2
                or not isinstance(row[0], str)
                or not isinstance(row[1], (str, int, float, bool,
                                           type(None)))):
            errors.append(f"{path}: row {i} is not a [field, scalar] "
                          f"pair: {row!r}")
            continue
        fields.append(row[0])
    for required in ("run id", "experiment", "seed", "deterministic"):
        if required not in fields:
            errors.append(f"{path}: summary has no {required!r} row")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, default=None,
                        help="Chrome trace (*.json) or span JSONL (*.jsonl)")
    parser.add_argument("--metrics", type=Path, default=None,
                        help="Prometheus text (*.prom) or snapshot (*.json)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="run manifest JSON")
    parser.add_argument("--health", type=Path, default=None,
                        help="health report JSON (autosens doctor)")
    parser.add_argument("--profile", type=Path, default=None,
                        help="span profile JSON (--profile-out)")
    parser.add_argument("--diff", type=Path, default=None,
                        help="diff report JSON (autosens obs diff --out)")
    parser.add_argument("--sensitivity", type=Path, default=None,
                        help="sensitivity frontier JSON (autosens "
                             "sensitivity --out-dir)")
    parser.add_argument("--progress", type=Path, default=None,
                        help="progress snapshot JSON (/progress or a "
                             "recorded progress.json)")
    parser.add_argument("--events", type=Path, default=None,
                        help="event NDJSON (/events or a recorded "
                             "events.ndjson)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="run registry: a --runs-dir directory or its "
                             "index.jsonl")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="watch baseline artifact (autosens watch "
                             "--out-dir baseline.json)")
    parser.add_argument("--trend", type=Path, default=None,
                        help="watch trend artifact (autosens watch "
                             "--out-dir trend.json)")
    parser.add_argument("--slo", type=Path, default=None,
                        help="watch SLO verdict artifact (autosens watch "
                             "--out-dir slo.json)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="an 'autosens obs summary --format json' "
                             "payload")
    args = parser.parse_args(argv)
    if all(getattr(args, name) is None
           for name in ("trace", "metrics", "manifest", "health",
                        "profile", "diff", "sensitivity", "progress",
                        "events", "registry", "baseline", "trend", "slo",
                        "summary")):
        parser.error("nothing to validate; pass --trace/--metrics/--manifest/"
                     "--health/--profile/--diff/--sensitivity/--progress/"
                     "--events/--registry/--baseline/--trend/--slo/--summary")

    errors = []
    if args.trace is not None:
        if args.trace.suffix == ".jsonl":
            errors += _validate_span_jsonl(args.trace)
        else:
            errors += _validate_chrome_trace(args.trace)
    if args.metrics is not None:
        if args.metrics.suffix == ".json":
            errors += _validate_metrics_json(args.metrics)
        else:
            errors += _validate_metrics_prom(args.metrics)
    if args.manifest is not None:
        errors += _validate_manifest(args.manifest)
    if args.health is not None:
        errors += _validate_health(args.health)
    if args.profile is not None:
        errors += _validate_profile(args.profile)
    if args.diff is not None:
        errors += _validate_diff(args.diff)
    if args.sensitivity is not None:
        errors += _validate_sensitivity(args.sensitivity)
    if args.progress is not None:
        errors += _validate_progress(args.progress)
    if args.events is not None:
        errors += _validate_events(args.events)
    if args.registry is not None:
        errors += _validate_registry(args.registry)
    if args.baseline is not None:
        errors += _validate_baseline(args.baseline)
    if args.trend is not None:
        errors += _validate_trend(args.trend)
    if args.slo is not None:
        errors += _validate_slo(args.slo)
    if args.summary is not None:
        errors += _validate_summary(args.summary)

    if errors:
        for line in errors:
            print(f"INVALID: {line}", file=sys.stderr)
        return 1
    print("ok: all artifacts validate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
