"""Run provenance manifests.

A manifest answers "what exactly produced these outputs?": the experiment
id, the RNG seed, a fingerprint of the analysis config, the python and
package versions that ran, sha256 digests of every input file, the
degradations the pipeline accepted, and the ingestion/quarantine totals.
It is written *atomically* (tmp + ``os.replace``) next to the experiment
outputs so a crash can never leave a half-written provenance record.

With ``deterministic=True`` the volatile fields (wall-clock ``created_at``)
are omitted and the JSON is key-sorted/compact, so two runs of the same
seeded experiment produce byte-identical manifests — the property the CI
obs job asserts.
"""

from __future__ import annotations

import hashlib
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import SchemaError
from repro.obs import _schema
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "run_mark",
    "run_manifest",
    "write_manifest",
    "load_manifest",
    "load_summary",
    "manifest_rows",
    "file_digest",
]

#: Bump when the manifest field set changes incompatibly.
MANIFEST_SCHEMA = 1

#: Fields every manifest carries (``created_at`` only when not deterministic).
MANIFEST_FIELDS = ("schema", "run_id", "experiment_id", "seed",
                   "config_fingerprint", "deterministic", "python",
                   "packages", "inputs", "degradations", "ingest", "metrics")

_FIELD_TYPES = {"packages": dict, "inputs": dict, "degradations": list,
                "ingest": dict, "metrics": dict, "span_timings": dict}


def file_digest(path: Union[str, Path], chunk_size: int = 1 << 20) -> str:
    """sha256 hex digest of a file's bytes, streamed."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(chunk_size), b""):
            h.update(chunk)
    return h.hexdigest()


def _package_versions() -> Dict[str, str]:
    """Versions of the third-party packages the pipeline leans on."""
    versions: Dict[str, str] = {}
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
            versions[name] = str(getattr(module, "__version__", "unknown"))
        except ImportError:  # pragma: no cover - both ship in the image
            versions[name] = "absent"
    return versions


def _fingerprint_config(config_fingerprint: Any) -> str:
    """Stable hex digest of a config fingerprint tuple/value."""
    raw = repr(config_fingerprint).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


def build_manifest(
    experiment_id: str,
    seed: int,
    config_fingerprint: Any = None,
    inputs: Iterable[Union[str, Path]] = (),
    degradations: Optional[List[Dict[str, Any]]] = None,
    ingest: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    deterministic: bool = False,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict (pure; writing is separate).

    ``run_id`` is derived from ``(experiment_id, seed, config)`` so the same
    logical run always carries the same identity. It is not the trace id,
    which the CLI sets to ``<command>:<seed>``. ``ingest`` takes the totals
    :func:`run_manifest` derives; ``metrics`` a registry snapshot.
    """
    config_hash = _fingerprint_config(config_fingerprint)
    run_id = hashlib.sha256(
        f"{experiment_id}\x00{seed}\x00{config_hash}".encode("utf-8")
    ).hexdigest()[:16]
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "experiment_id": experiment_id,
        "seed": seed,
        "config_fingerprint": config_hash,
        "deterministic": deterministic,
        "python": platform.python_version(),
        "platform": sys.platform,
        "packages": _package_versions(),
        "inputs": {
            str(Path(p)): file_digest(p) for p in sorted(map(str, inputs))
        },
        "degradations": list(degradations or []),
        "ingest": dict(ingest) if ingest else {},
        "metrics": dict(metrics) if metrics else {},
    }
    if not deterministic:
        manifest["created_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if extra:
        manifest.update(extra)
    return manifest


def _ingest_totals(metrics: MetricsRegistry) -> Dict[str, Any]:
    """Rows seen and rejected, from the counters every read flushes once.

    ``n_rows`` counts rows seen (``n_good + n_bad``), unlike
    ``IngestReport.n_rows``, which counts rows accepted.
    """
    rows = metrics.series("autosens_ingest_rows_total")
    if not rows:
        return {}
    n_rows = int(sum(rows.values()))
    n_good = int(sum(v for key, v in rows.items() if ("outcome", "read") in key))
    totals: Dict[str, Any] = {
        "mode": ",".join(sorted({dict(key)["mode"] for key in rows})),
        "n_rows": n_rows, "n_good": n_good, "n_bad": n_rows - n_good}
    reasons: Dict[str, int] = {}
    for key, count in metrics.series("autosens_ingest_rejects_total").items():
        reason = dict(key)["reason"]
        reasons[reason] = reasons.get(reason, 0) + int(count)
    if reasons:
        totals["reasons"] = dict(sorted(reasons.items()))
    return totals


def run_mark() -> Tuple[int, int, int]:
    """Where a run starts in the active observability context: how many
    degradations, findings and finished spans it already holds. Pass it to
    :func:`run_manifest` as ``since`` to record only what the run added."""
    from repro.obs import _runtime

    ctx = _runtime.current()
    return (len(ctx.degradations), len(ctx.findings),
            len(ctx.tracer.finished()))


def run_manifest(experiment_id: str, seed: Optional[int],
                 config_fingerprint: Any,
                 inputs: Iterable[Union[str, Path]] = (),
                 extra: Optional[Dict[str, Any]] = None,
                 since: Tuple[int, int, int] = (0, 0, 0)) -> Dict[str, Any]:
    """The active run's manifest, built from the observability context.

    The context supplies what it accumulated: degradations, the metrics
    snapshot, the one health report, span timings and ingest totals. With
    ``since`` (a :func:`run_mark`) the degradations, health findings and
    span timings are only those recorded after the mark; the metrics stay
    the context's totals. The caller names the run and adds what the
    context cannot know (``extra``: supervision, ``outcome_cached``, ...).
    The manifest is kept on the context, so every copy a CLI invocation
    writes is this one.
    """
    from repro.obs import _runtime
    from repro.obs.health import build_health_report
    from repro.obs.trace import aggregate_span_timings

    ctx = _runtime.current()
    n_degradations, n_findings, n_spans = since
    degradations = ctx.degradations[n_degradations:]
    health = build_health_report(ctx.findings[n_findings:], degradations)
    manifest = build_manifest(
        experiment_id, seed if seed is not None else -1, config_fingerprint,
        inputs=inputs, degradations=degradations,
        ingest=_ingest_totals(ctx.metrics),
        metrics=ctx.metrics.snapshot() if ctx.enabled else {},
        deterministic=ctx.deterministic,
        extra={"health": health.to_dict(), **(extra or {})})
    span_timings = aggregate_span_timings(ctx.tracer.finished()[n_spans:])
    if span_timings:
        manifest["span_timings"] = span_timings
    if ctx.enabled:
        ctx.manifest = manifest
    return manifest


def write_manifest(manifest: Dict[str, Any],
                   path: Union[str, Path]) -> Path:
    """Atomically write a manifest as key-sorted JSON; returns the path."""
    return _schema.write_json(manifest, path, default=str)


def load_manifest(source: Any) -> Dict[str, Any]:
    """Read a manifest back (a path or a parsed payload), validating on
    read: every field :func:`build_manifest` writes with its JSON type, no
    ``created_at`` on a deterministic manifest, span timings with a count
    and non-negative seconds, and a valid embedded health report."""
    from repro.obs.health import health_violations

    data = _schema.read_json(source, "manifest")
    where = _schema.owner(source, "manifest")
    if not isinstance(data, dict) or "run_id" not in data:
        raise SchemaError(f"{where} is not a run manifest (no run_id)")
    absent = _schema.missing(data, MANIFEST_FIELDS)
    errors = [f"{where}: missing fields {absent}"] if absent else []
    if data.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"{where}: schema != {MANIFEST_SCHEMA}")
    if data.get("deterministic") and "created_at" in data:
        errors.append(f"{where}: deterministic manifest carries created_at")
    errors += [f"{where}: {key} is not a {kind.__name__}"
               for key, kind in _FIELD_TYPES.items()
               if key in data and not isinstance(data[key], kind)]
    timings = data.get("span_timings")
    errors += [f"{where}: span_timings[{name!r}] lacks a count and seconds"
               for name, cell in (timings if isinstance(timings, dict)
                                  else {}).items()
               if _schema.missing(cell, ("count", "seconds"))
               or not _schema.is_count(cell["count"])
               or not _schema.is_number(cell["seconds"])
               or cell["seconds"] < 0]
    if "health" in data:
        errors += health_violations(data["health"], f"{where} (embedded)")
    _schema.raise_if(errors)
    return data


def manifest_rows(manifest: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """Key/value rows for human rendering (``repro obs summary``)."""
    rows: List[Tuple[str, Any]] = [
        ("run id", manifest.get("run_id", "?")),
        ("experiment", manifest.get("experiment_id", "?")),
        ("seed", manifest.get("seed", "?")),
        ("config fingerprint", manifest.get("config_fingerprint", "?")),
        ("deterministic", manifest.get("deterministic", False)),
        ("python", manifest.get("python", "?")),
    ]
    if manifest.get("created_at"):
        rows.append(("created at", manifest["created_at"]))
    for pkg, version in sorted(manifest.get("packages", {}).items()):
        rows.append((f"package[{pkg}]", version))
    for path, digest in sorted(manifest.get("inputs", {}).items()):
        rows.append((f"input[{path}]", digest[:12]))
    ingest = manifest.get("ingest") or {}
    for key in ("mode", "n_rows", "n_good", "n_bad"):
        if key in ingest:
            rows.append((f"ingest {key}", ingest[key]))
    for reason, count in sorted((ingest.get("reasons") or {}).items()):
        rows.append((f"ingest rejected[{reason}]", count))
    degradations = manifest.get("degradations") or []
    rows.append(("degradations", len(degradations)))
    for d in degradations:
        label = d.get("kind", "degraded") if isinstance(d, dict) else str(d)
        detail = d.get("detail", "") if isinstance(d, dict) else ""
        rows.append((f"  {label}", detail))
    health = manifest.get("health")
    if isinstance(health, dict):
        counts = health.get("counts") or {}
        rows.append(("health verdict", health.get("verdict", "?")))
        rows.append(("health findings",
                     " ".join(f"{k}={counts.get(k, 0)}"
                              for k in ("ok", "warn", "fail"))))
        for stage, verdict in sorted((health.get("stages") or {}).items()):
            rows.append((f"  health[{stage}]", verdict))
    supervisor_gauges = (
        "autosens_breaker_state",
        "autosens_deadline_remaining_s",
    )
    for name in supervisor_gauges:
        metric = (manifest.get("metrics") or {}).get(name)
        if not isinstance(metric, dict):
            continue
        for labels, value in sorted((metric.get("series") or {}).items()):
            rows.append((f"supervisor {name}{labels}", value))
    return rows


#: Rows every ``autosens obs summary --format json`` payload carries,
#: with the JSON type of their values.
SUMMARY_FIELDS = {"run id": str, "experiment": str, "seed": int,
                  "deterministic": bool}


def load_summary(path: Union[str, Path]) -> List[List[Any]]:
    """Read an ``autosens obs summary --format json`` payload back,
    validating on read: ``[field, scalar]`` rows covering
    :data:`SUMMARY_FIELDS`, each with a value of its type."""
    rows = _schema.read_json(path, "summary")
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{path}: not a list of [field, value] rows")
    pairs = {i: row for i, row in enumerate(rows)
             if isinstance(row, list) and len(row) == 2
             and isinstance(row[0], str)
             and isinstance(row[1], (str, int, float, bool, type(None)))}
    errors = [f"{path}: row {i} is not a [field, scalar] pair"
              for i in range(len(rows)) if i not in pairs]
    values = dict(pairs.values())
    errors += [f"{path}: {name!r} row missing or not of type {kind.__name__}"
               for name, kind in SUMMARY_FIELDS.items()
               if type(values.get(name)) is not kind]
    _schema.raise_if(errors)
    return rows
