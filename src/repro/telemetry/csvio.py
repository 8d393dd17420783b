"""CSV reader/writer for telemetry logs.

A flat-file interchange format for spreadsheets and other tools. The column
set matches :meth:`ActionRecord.to_dict` minus the free-form ``extra``
mapping (CSV is flat); ``extra`` is dropped on write. The reader honors the
same :class:`~repro.telemetry.ingest.IngestPolicy` machinery as the JSONL
reader: bad rows raise, are skipped under a budget, or land in a quarantine
sink, and :func:`read_csv` attaches an
:class:`~repro.telemetry.ingest.IngestReport` to the returned store.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError, SchemaError
from repro.telemetry.ingest import (
    IngestCollector,
    IngestPolicy,
    batches,
    ingest_batch,
    validate_record,
)
from repro.telemetry.jsonl import _column_batches
from repro.telemetry.log_store import ColumnBuilder, Columns, LogStore
from repro.telemetry.record import ActionRecord

PathLike = Union[str, Path]
PolicyLike = Union[None, str, IngestPolicy]

#: ``(line number, cells)`` — a non-blank data row.
Row = Tuple[int, List[str]]

FIELDS = [
    "time",
    "action",
    "latency_ms",
    "user_id",
    "user_class",
    "success",
    "tz_offset_hours",
]


def write_csv(records: Union[LogStore, Iterable[ActionRecord]],
              path: PathLike) -> int:
    """Write records, or a :class:`LogStore`'s rows, to CSV with a header
    row; returns the row count.

    ``success`` is written as ``0``/``1`` and ``extra`` is dropped; each
    batch of rows goes out in one ``writerows`` call.
    """
    path = Path(path)
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        for batch in _column_batches(records):
            times, actions, latencies, user_ids, user_classes, success, tz, _ = batch
            writer.writerows(zip(times, actions, latencies, user_ids,
                                 user_classes, map(int, success), tz))
            count += len(times)
    return count


def _open_csv(path: Path):
    try:
        return open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such telemetry file") from None


def _header(reader, path: Path) -> List[str]:
    fieldnames = next(reader, None)
    missing = set(("time", "action", "latency_ms")) - set(fieldnames or [])
    if missing:
        raise SchemaError(f"{path}: missing required CSV columns {sorted(missing)}")
    return fieldnames


def _rows(reader) -> Iterator[Row]:
    """Data rows numbered as :class:`csv.DictReader` yields them: blank
    rows are skipped and not counted."""
    lineno = 2
    for cells in reader:
        if cells:
            yield lineno, cells
            lineno += 1


def _row_dict(fieldnames: List[str], cells: List[str]) -> Dict[Optional[str], object]:
    """What :class:`csv.DictReader` makes of one row."""
    data: Dict[Optional[str], object] = dict(zip(fieldnames, cells))
    if len(fieldnames) < len(cells):
        data[None] = cells[len(fieldnames):]
    else:
        for key in fieldnames[len(cells):]:
            data[key] = None
    return data


def _row_record(lineno: int, fieldnames: List[str], cells: List[str],
                collector: IngestCollector) -> Optional[ActionRecord]:
    """The per-row path: one row to a record, or a bad row reported."""
    row = _row_dict(fieldnames, cells)
    try:
        record = ActionRecord(
            time=float(row["time"]),
            action=row["action"],
            latency_ms=float(row["latency_ms"]),
            user_id=row.get("user_id", "") or "",
            user_class=row.get("user_class", "") or "",
            success=bool(int(row.get("success", 1) or 1)),
            tz_offset_hours=float(row.get("tz_offset_hours", 0) or 0),
        )
        validate_record(record)
    except (TypeError, ValueError, SchemaError) as exc:
        reason = ("non-finite" if "not finite" in str(exc) else
                  "schema" if isinstance(exc, SchemaError) else "parse")
        raw = ",".join("" if v is None else str(v) for v in row.values())
        collector.bad(lineno, reason, raw, exc)
        return None
    collector.good()
    return record


def iter_csv(
    path: PathLike,
    policy: PolicyLike = None,
    collector: Optional[IngestCollector] = None,
) -> Iterator[ActionRecord]:
    """Stream records from a CSV file written by :func:`write_csv`.

    Same policy semantics as :func:`~repro.telemetry.jsonl.iter_jsonl`.
    A missing/incomplete header is never survivable and raises
    :class:`SchemaError` under every policy.
    """
    path = Path(path)
    own_collector = collector is None
    if collector is None:
        collector = IngestCollector(IngestPolicy.of(policy), source=path)
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        fieldnames = _header(reader, path)
        for lineno, cells in _rows(reader):
            record = _row_record(lineno, fieldnames, cells, collector)
            if record is not None:
                yield record
    if own_collector:
        collector.finish()


def _convert(values: List[str], convert: Callable, flagged: np.ndarray) -> list:
    """``convert`` over ``values``; failures become 0 and are flagged."""
    try:
        return list(map(convert, values))
    except (TypeError, ValueError):
        out = []
        for i, value in enumerate(values):
            try:
                out.append(convert(value))
            except (TypeError, ValueError):
                out.append(0)
                flagged[i] = True
        return out


def _csv_columns(batch: List[Row], fieldnames: List[str]) -> Tuple[Columns, np.ndarray]:
    """Columns of a batch of rows, with a mask of rows the per-row path must
    judge: a cell count off the header's, or a cell ``float()``/``int()``
    rejects. Numbers go through ``float()`` itself, not NumPy's parser,
    which accepts and rejects different strings."""
    n = len(batch)
    width = len(fieldnames)
    flagged = np.array([len(cells) != width for _, cells in batch], dtype=bool)
    blank = [""] * width
    rows = [cells if len(cells) == width else blank for _, cells in batch]
    # dict(zip(...)) keeps the last of duplicate names; so does this.
    position = {name: i for i, name in enumerate(fieldnames)}

    def column(name: str) -> Optional[List[str]]:
        i = position.get(name)
        return None if i is None else [cells[i] for cells in rows]

    def floats(values: List[str]) -> np.ndarray:
        return np.array(_convert(values, float, flagged), dtype=float)

    optional = {name: column(name) for name in
                ("user_id", "user_class", "success", "tz_offset_hours")}
    success = optional["success"]
    tz_offsets = optional["tz_offset_hours"]
    return Columns(
        times=floats(column("time")),
        latencies_ms=floats(column("latency_ms")),
        actions=column("action"),
        user_ids=optional["user_id"] or [""] * n,
        user_classes=optional["user_class"] or [""] * n,
        success=(np.ones(n, dtype=bool) if success is None else np.array(
            _convert(success, lambda s: bool(int(s)) if s else True, flagged),
            dtype=bool)),
        tz_offsets=(np.zeros(n) if tz_offsets is None else np.array(
            _convert(tz_offsets, lambda s: float(s) if s else 0.0, flagged),
            dtype=float)),
    ), flagged


def read_csv(
    path: PathLike,
    policy: PolicyLike = None,
) -> LogStore:
    """Read a whole CSV file into a :class:`LogStore`.

    Rows are collected in batches of
    :data:`~repro.telemetry.ingest.BATCH_ROWS` into columns and validated
    by the same whole-column check as :func:`~repro.telemetry.jsonl.read_jsonl`;
    a row the check rejects goes through the per-row path of
    :func:`iter_csv`, so the result is exactly that of
    ``LogStore.from_records(iter_csv(...))``.

    Attaches the read's :class:`~repro.telemetry.ingest.IngestReport` as
    ``store.ingest_report``; raises :class:`~repro.errors.IngestError` when
    the policy's error budget is exceeded, and
    :class:`~repro.errors.ConfigError` when the file does not exist.
    """
    path = Path(path)
    collector = IngestCollector(IngestPolicy.of(policy), source=path)
    builder = ColumnBuilder()
    fallback = 0
    with obs.span("ingest", format="csv") as span, _open_csv(path) as fh:
        reader = csv.reader(fh)
        fieldnames = _header(reader, path)

        for batch in batches(_rows(reader)):

            def per_row(i: int) -> None:
                lineno, cells = batch[i]
                record = _row_record(lineno, fieldnames, cells, collector)
                if record is not None:
                    builder.add_record(record)

            columns, flagged = _csv_columns(batch, fieldnames)
            fallback += ingest_batch(columns, flagged, per_row, builder, collector)
        store = builder.store()
        report = collector.report
        span.set(rows=report.n_rows, rows_bad=report.n_bad, fallback_rows=fallback)
        store.ingest_report = collector.finish()
    return store
