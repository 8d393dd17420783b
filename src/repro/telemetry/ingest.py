"""Policy-driven resilient ingestion.

Server logs in the wild always have a few bad rows. This module decides
what happens to them. Every telemetry reader threads its rows through an
:class:`IngestPolicy`:

- ``strict`` — the first bad row raises :class:`~repro.errors.SchemaError`
  with the file and line number (the historical default, unchanged).
- ``lenient`` — bad rows are counted and skipped; the read succeeds as long
  as the bad-row share stays within the policy's error budget.
- ``quarantine`` — like ``lenient``, but every bad row is additionally
  written to a quarantine JSONL sink (one object per bad row: line number,
  reason, raw text) so nothing is silently lost.

The quarantine sink is *crash-safe*: every record is serialized whole
(newline included) and lands in one ``os.write`` on an ``O_APPEND``
descriptor, so a process dying mid-quarantine can at worst truncate the
final record — it can never interleave or tear an earlier line. The sink
is fsynced on close, and :func:`read_quarantine` tolerates a truncated
trailing record, so a quarantine file survives its writer's crash and
never poisons re-ingestion.

Every read produces an :class:`IngestReport` — row/bad-row counts, a
per-reason breakdown, a sample of the first offenders — which the readers
attach to the returned :class:`~repro.telemetry.log_store.LogStore` and the
CLI ``quality``/``preflight`` commands print. Exceeding the error budget
raises :class:`~repro.errors.IngestError` carrying the report.

The whole-file readers work in batches of :data:`BATCH_ROWS` rows: each
parses a batch into :class:`~repro.telemetry.log_store.Columns`,
:func:`ingest_batch` checks them as whole columns, and a
:class:`~repro.telemetry.log_store.ColumnBuilder` encodes them into the
store. A
row the batch cannot vouch for goes through the reader's per-row path,
the same code its streaming iterator runs, so the outcome is the per-row
one exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError, IngestError
from repro.telemetry.log_store import ColumnBuilder, Columns

_log = obs.get_logger(__name__)

__all__ = [
    "INGEST_MODES",
    "BadRow",
    "IngestPolicy",
    "IngestReport",
    "IngestCollector",
    "read_quarantine",
    "validate_record",
]

#: Rows a batch reader parses and validates at once. Bounds the transient
#: memory of a read to one batch of text and parsed rows on top of the
#: store's columns.
BATCH_ROWS = 8192

#: Accepted ``IngestPolicy.mode`` values.
INGEST_MODES = ("strict", "lenient", "quarantine")

#: How many offending rows an :class:`IngestReport` keeps verbatim.
_SAMPLE_LIMIT = 10

#: Quarantined raw lines are truncated to this many characters.
_RAW_LIMIT = 500


@dataclass(frozen=True)
class IngestPolicy:
    """How a reader treats rows that fail to parse or validate.

    ``max_bad_share`` is the error budget: in ``lenient``/``quarantine``
    mode the read fails with :class:`~repro.errors.IngestError` when more
    than that share of the file's rows is bad, checked once the whole file
    has been read. ``quarantine_path`` is required in ``quarantine`` mode.
    """

    mode: str = "strict"
    max_bad_share: float = 0.05
    quarantine_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.mode not in INGEST_MODES:
            raise ConfigError(
                f"unknown ingest mode {self.mode!r}; pick one of {INGEST_MODES}"
            )
        if not 0.0 <= self.max_bad_share <= 1.0:
            raise ConfigError(
                f"max_bad_share must be in [0, 1], got {self.max_bad_share}"
            )
        if self.mode == "quarantine" and self.quarantine_path is None:
            raise ConfigError("quarantine mode needs a quarantine_path")

    @classmethod
    def of(cls, spec: Union[None, str, "IngestPolicy"],
           quarantine_path: Optional[Union[str, Path]] = None) -> "IngestPolicy":
        """Coerce a user-facing spec (name or policy) into a policy."""
        if spec is None:
            return cls()
        if isinstance(spec, IngestPolicy):
            return spec
        if isinstance(spec, str):
            return cls(mode=spec, quarantine_path=quarantine_path)
        raise ConfigError(f"cannot interpret ingest policy spec {spec!r}")


@dataclass(frozen=True)
class BadRow:
    """One rejected input row: where it was, why, and what it said."""

    lineno: int
    reason: str
    raw: str = ""


@dataclass
class IngestReport:
    """Structured outcome of one telemetry read.

    ``n_rows`` counts rows that made it into the store; ``n_bad`` counts
    rejected rows. ``reasons`` maps a short reason category (e.g.
    ``"json-decode"``, ``"schema"``, ``"non-finite"``) to its count, and
    ``sample`` keeps the first few offenders verbatim for debugging.
    """

    source: str = ""
    mode: str = "strict"
    n_rows: int = 0
    n_bad: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    sample: List[BadRow] = field(default_factory=list)
    quarantine_path: Optional[str] = None
    max_bad_share: float = 0.05

    @property
    def n_seen(self) -> int:
        return self.n_rows + self.n_bad

    @property
    def bad_share(self) -> float:
        seen = self.n_seen
        return (self.n_bad / seen) if seen else 0.0

    @property
    def within_budget(self) -> bool:
        return self.n_bad == 0 or self.bad_share <= self.max_bad_share

    @property
    def clean(self) -> bool:
        return self.n_bad == 0

    def rows(self) -> List[Tuple[str, object]]:
        """Tabular key/value form for the CLI printers."""
        out: List[Tuple[str, object]] = [
            ("ingest mode", self.mode),
            ("rows ingested", self.n_rows),
            ("rows rejected", self.n_bad),
            ("bad-row share", round(self.bad_share, 4)),
            ("error budget", self.max_bad_share),
        ]
        for reason, count in sorted(self.reasons.items()):
            out.append((f"rejected[{reason}]", count))
        if self.quarantine_path:
            out.append(("quarantine file", self.quarantine_path))
        return out

    def summary(self) -> str:
        if self.clean:
            return f"{self.n_rows} rows, no rejects"
        reasons = ", ".join(
            f"{reason}={count}" for reason, count in sorted(self.reasons.items())
        )
        return (
            f"{self.n_rows} rows, {self.n_bad} rejected "
            f"({self.bad_share:.2%}; {reasons})"
        )


def validate_record(record) -> None:
    """Value-level checks the schema alone cannot express.

    ``NaN`` slips past :class:`~repro.telemetry.record.ActionRecord`'s
    range checks (``nan < 0`` is false), and an infinite timestamp would
    poison every downstream histogram, so the readers reject non-finite
    numerics here. Raises :class:`~repro.errors.SchemaError`.
    """
    import math

    from repro.errors import SchemaError

    for name in ("time", "latency_ms", "tz_offset_hours"):
        value = getattr(record, name)
        if not math.isfinite(value):
            raise SchemaError(f"{name} is not finite: {value!r}")


class IngestCollector:
    """Accumulates an :class:`IngestReport` while a reader streams rows.

    The readers call :meth:`good` per accepted row and :meth:`bad` per
    rejected one; :meth:`bad` re-raises under the strict policy and feeds
    the quarantine sink otherwise. :meth:`finish` closes the sink and
    enforces the error budget.
    """

    def __init__(self, policy: IngestPolicy, source: Union[str, Path] = "") -> None:
        self.policy = policy
        self.report = IngestReport(
            source=str(source),
            mode=policy.mode,
            max_bad_share=policy.max_bad_share,
            quarantine_path=(
                str(policy.quarantine_path)
                if policy.mode == "quarantine" and policy.quarantine_path
                else None
            ),
        )
        self._sink = None

    def good(self, n: int = 1) -> None:
        self.report.n_rows += n

    def bad(self, lineno: int, reason: str, raw: str, exc: Exception) -> None:
        """Record one rejected row; raises under the strict policy."""
        if self.policy.mode == "strict":
            from repro.errors import SchemaError

            raise SchemaError(f"{self.report.source}:{lineno}: {exc}") from exc
        self.report.n_bad += 1
        self.report.reasons[reason] = self.report.reasons.get(reason, 0) + 1
        truncated = raw[:_RAW_LIMIT]
        if len(self.report.sample) < _SAMPLE_LIMIT:
            self.report.sample.append(
                BadRow(lineno=lineno, reason=reason, raw=truncated)
            )
        if self.policy.mode == "quarantine":
            if self._sink is None:
                path = Path(self.policy.quarantine_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                # A fresh file per read, appended atomically thereafter:
                # each record goes down in ONE os.write of the complete
                # line, so a crash mid-quarantine can only truncate the
                # final record, never tear or interleave an earlier one.
                self._sink = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
                    0o644,
                )
            line = json.dumps({
                "source": self.report.source,
                "lineno": lineno,
                "reason": reason,
                "error": str(exc),
                "raw": truncated,
            }, separators=(",", ":")) + "\n"
            os.write(self._sink, line.encode("utf-8"))

    def finish(self) -> IngestReport:
        """Close the quarantine sink and enforce the error budget.

        Also flushes the read's totals into the metrics registry — once per
        read, not per row, so the streaming loop stays untouched:
        ``autosens_ingest_rows_total{mode,outcome}`` with ``outcome`` one of
        ``read`` (accepted), ``skipped`` (rejected, lenient) or
        ``quarantined`` (rejected and written to the quarantine sink).
        """
        if self._sink is not None:
            os.fsync(self._sink)
            os.close(self._sink)
            self._sink = None
        report = self.report
        mode = self.policy.mode
        if report.n_rows:
            obs.inc("autosens_ingest_rows_total", float(report.n_rows),
                    mode=mode, outcome="read")
        if report.n_bad:
            outcome = "quarantined" if mode == "quarantine" else "skipped"
            obs.inc("autosens_ingest_rows_total", float(report.n_bad),
                    mode=mode, outcome=outcome)
            for reason, count in sorted(report.reasons.items()):
                obs.inc("autosens_ingest_rejects_total", float(count),
                        mode=mode, reason=reason)
            _log.warning(
                "ingest rejects", source=report.source, mode=mode,
                n_bad=report.n_bad, bad_share=round(report.bad_share, 4),
                quarantine=report.quarantine_path or "",
            )
        if not report.within_budget:
            raise IngestError(
                f"{report.source}: {report.summary()} — exceeds the "
                f"error budget of {self.policy.max_bad_share:.2%}",
                report=report,
            )
        return report


def read_quarantine(path: Union[str, Path]) -> List[dict]:
    """Read a quarantine JSONL file back, surviving a torn final record.

    Because the sink appends each record in a single write, the only
    possible corruption is a truncated *trailing* line (the writer died
    mid-record). That line is dropped with a counted warning; a torn line
    anywhere else means the file was not produced by the atomic sink and
    raises :class:`~repro.errors.IngestError`.
    """
    path = Path(path)
    records: List[dict] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")
    # A well-formed file ends with "\n" → the final split element is "".
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                obs.inc("autosens_quarantine_torn_total")
                _log.warning(
                    "quarantine file ends in a torn record; dropped",
                    source=str(path), lineno=i + 1,
                )
                continue
            raise IngestError(
                f"{path}: line {i + 1} is not valid JSON — the file was "
                "not written by the atomic quarantine sink"
            )
    return records


def batches(items: Iterator) -> Iterator[list]:
    """Lists of up to :data:`BATCH_ROWS` items from ``items``.

    An error raised while reading ``items`` (a decode error, a torn gzip
    stream) is re-raised only after the items read before it are yielded,
    so a batch reader meets it where a per-row reader would.
    """
    while True:
        batch: list = []
        try:
            batch.extend(islice(items, BATCH_ROWS))
        except Exception:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


def rejected_rows(columns: Columns) -> np.ndarray:
    """Rows that :class:`~repro.telemetry.record.ActionRecord` or
    :func:`validate_record` would reject, as a mask.

    The whole-column form of the per-row checks: finite ``time``,
    ``latency_ms`` and ``tz_offset_hours``, ``latency_ms >= 0``,
    ``|tz_offset_hours| <= 24`` and a non-empty ``action``.
    """
    tz = columns.tz_offsets
    bad = ~(np.isfinite(columns.times) & np.isfinite(columns.latencies_ms)
            & (columns.latencies_ms >= 0) & np.isfinite(tz) & (np.abs(tz) <= 24.0))
    if "" in columns.actions:
        bad |= np.array([name == "" for name in columns.actions], dtype=bool)
    return bad


def ingest_batch(
    columns: Columns,
    flagged: np.ndarray,
    per_row: Callable[[int], None],
    builder: ColumnBuilder,
    collector: IngestCollector,
) -> int:
    """Validate one parsed batch as columns and add it in row order.

    ``flagged`` marks rows the parser could not type. Flagged rows and rows
    failing :func:`rejected_rows` go one at a time through ``per_row(i)``,
    the reader's reference per-row path for the batch's ``i``-th row, so
    their verdict, reason, line number and quarantine record are the
    per-row ones. The runs of passing rows between them are added as
    column slices. Returns how many rows took the per-row path.
    """
    n = len(flagged)
    bad = rejected_rows(columns) | flagged
    start = 0
    for i in np.flatnonzero(bad).tolist() + [n]:
        if i > start:
            builder.add_columns(columns.rows(start, i))
            collector.good(i - start)
        if i < n:
            per_row(i)
        start = i + 1
    return int(bad.sum())
