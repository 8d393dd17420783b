"""JSON-lines reader/writer for telemetry logs.

One JSON object per line with the :meth:`ActionRecord.to_dict` fields.
:func:`iter_jsonl` streams records one line at a time; :func:`read_jsonl`
parses bounded batches of lines straight into :class:`LogStore` columns,
so its memory is batch-bounded on top of the columns themselves. Both are
strict by default: malformed lines raise :class:`SchemaError` with the
line number — server logs in the wild always have a few bad rows, so pass
an :class:`~repro.telemetry.ingest.IngestPolicy` (``"lenient"`` or
``"quarantine"``) to route them to a quarantine sink under an error budget
instead. :func:`read_jsonl` attaches the resulting
:class:`~repro.telemetry.ingest.IngestReport` to the returned store
(``store.ingest_report``; ``store.n_skipped_rows`` is the skip count).
:func:`write_jsonl` formats batches of columns, from records or straight
from a store.
"""

from __future__ import annotations

import gzip
import json
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
from repro.telemetry.log_store import ColumnBuilder, Columns, LogStore
from repro.telemetry.record import ActionRecord

PathLike = Union[str, Path]
PolicyLike = Union[None, str, IngestPolicy]

#: Runs of lines shorter than this skip the batch parse and go per-row.
_MIN_RUN = 16

#: Exact value types the batch path accepts per field; any other type
#: (a ``bool`` or numeric string time, a non-string user id, a numeric
#: success flag) sends its row down the per-row path, which decides.
_NUMBER = frozenset((int, float))
_STRING = frozenset((str,))
_BOOL = frozenset((bool,))


def _open_text(path: Path, mode: str):
    try:
        if path.suffix == ".gz":
            return gzip.open(path, mode + "t", encoding="utf-8")
        return open(path, mode, encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such telemetry file") from None


#: ``json.dumps(value, separators=(",", ":"))`` for any one value, and for
#: a whole list of values at once.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: Value types a column is encoded as one list: their JSON tokens never
#: hold a comma.
_SCALAR = frozenset((int, float, bool))


def _column_batches(source: Union[LogStore, Iterable[ActionRecord]]
                    ) -> Iterator[Tuple[list, ...]]:
    """The rows of a store or of records as per-field lists, up to
    :data:`~repro.telemetry.ingest.BATCH_ROWS` rows at a time: the seven
    :class:`ActionRecord` field columns in field order, then the ``extra``
    mappings (``None`` when the source carries none)."""
    if isinstance(source, LogStore):
        for columns in source.iter_columns():
            yield (*columns, None)
        return
    for batch in batches(iter(source)):
        yield ([r.time for r in batch], [r.action for r in batch],
               [r.latency_ms for r in batch], [r.user_id for r in batch],
               [r.user_class for r in batch], [r.success for r in batch],
               [r.tz_offset_hours for r in batch], [r.extra for r in batch])


def _tokens(values: list) -> list:
    """Each value as ``json.dumps`` writes it.

    A column of plain ints, floats and bools is encoded with one call and
    split on commas: a JSON number or literal (``NaN`` and ``Infinity``
    included) never holds one, so each piece is the value's own token.
    """
    if _SCALAR.issuperset(map(type, values)):
        return _ENCODE(values)[1:-1].split(",")
    return list(map(_ENCODE, values))


def _string_tokens(values: list, cache: dict) -> list:
    """:func:`_tokens` for a string column, each distinct ``str`` encoded
    once per ``cache``."""
    if not _STRING.issuperset(map(type, values)):
        return list(map(_ENCODE, values))
    for value in set(values):
        if value not in cache:
            cache[value] = _ENCODE(value)
    return list(map(cache.__getitem__, values))


def _jsonl_lines(batch: Tuple[list, ...], cache: dict) -> str:
    """One batch as the lines the per-record ``json.dumps(to_dict())``
    writes, keys in :meth:`ActionRecord.to_dict` order."""
    times, actions, latencies, user_ids, user_classes, success, tz, extras = batch
    ends: Iterable[str] = repeat("}\n")
    if extras is not None and any(extras):
        ends = [',"extra":' + _ENCODE(dict(extra)) + "}\n" if extra else "}\n"
                for extra in extras]
    return "".join([
        f'{{"time":{t},"action":{a},"latency_ms":{lat},"user_id":{u},'
        f'"user_class":{c},"success":{ok},"tz_offset_hours":{z}{end}'
        for t, a, lat, u, c, ok, z, end in zip(
            _tokens(times), _string_tokens(actions, cache), _tokens(latencies),
            _string_tokens(user_ids, cache), _string_tokens(user_classes, cache),
            _tokens(success), _tokens(tz), ends)
    ])


def write_jsonl(records: Union[LogStore, Iterable[ActionRecord]],
                path: PathLike) -> int:
    """Write records, or a :class:`LogStore`'s rows, to a (optionally
    ``.gz``) JSONL file; returns the row count.

    Each line is byte for byte ``json.dumps(record.to_dict(),
    separators=(",", ":"))``, formatted a batch of columns at a time.
    """
    path = Path(path)
    count = 0
    cache: dict = {}
    with _open_text(path, "w") as fh:
        for batch in _column_batches(records):
            fh.write(_jsonl_lines(batch, cache))
            count += len(batch[0])
    return count


def _lines(fh) -> Iterator[Tuple[int, str]]:
    """Non-blank lines, stripped, with their 1-based line numbers."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _row_record(lineno: int, line: str,
                collector: IngestCollector) -> Optional[ActionRecord]:
    """The per-row path: one line to a record, or a bad row reported."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        collector.bad(lineno, "json-decode", line, exc)
        return None
    try:
        if not isinstance(data, dict):
            raise SchemaError(f"expected a JSON object, got {type(data).__name__}")
        record = ActionRecord.from_dict(data)
        validate_record(record)
    except SchemaError as exc:
        reason = "non-finite" if "not finite" in str(exc) else "schema"
        collector.bad(lineno, reason, line, exc)
        return None
    collector.good()
    return record


def iter_jsonl(
    path: PathLike,
    policy: PolicyLike = None,
    collector: Optional[IngestCollector] = None,
) -> Iterator[ActionRecord]:
    """Stream records from a JSONL file, one line at a time.

    ``policy`` (an :class:`~repro.telemetry.ingest.IngestPolicy` or mode
    name; strict by default) decides what a bad row does. Pass a
    ``collector`` to receive per-row accounting — or use :func:`read_jsonl`,
    which does so and attaches the report to the store.
    """
    path = Path(path)
    own_collector = collector is None
    if collector is None:
        collector = IngestCollector(IngestPolicy.of(policy), source=path)
    with _open_text(path, "r") as fh:
        for lineno, line in _lines(fh):
            record = _row_record(lineno, line, collector)
            if record is not None:
                yield record
    if own_collector:
        collector.finish()


def _flat(line: str) -> bool:
    return (line[0] == "{" and line[-1] == "}" and line.count("{") == 1
            and "[" not in line)


def _typed(values: list, types: frozenset, fill, flagged: np.ndarray) -> list:
    """``values`` with entries of any other exact type replaced by ``fill``
    and marked in ``flagged``."""
    if types.issuperset(map(type, values)):
        return values
    out = list(values)
    for i, value in enumerate(values):
        if type(value) not in types:
            out[i] = fill
            flagged[i] = True
    return out


def _parsed_columns(rows: List[dict]) -> Tuple[Columns, np.ndarray]:
    """Columns of parsed rows, with a mask of rows the per-row path must
    judge: missing required fields, other value types, an ``extra`` key."""
    n = len(rows)
    flagged = np.zeros(n, dtype=bool)
    times = _typed([r.get("time") for r in rows], _NUMBER, 0.0, flagged)
    latencies = _typed([r.get("latency_ms") for r in rows], _NUMBER, 0.0, flagged)
    tz_offsets = _typed([r.get("tz_offset_hours", 0.0) for r in rows],
                        _NUMBER, 0.0, flagged)
    actions = _typed([r.get("action") for r in rows], _STRING, "-", flagged)
    user_ids = _typed([r.get("user_id", "") for r in rows], _STRING, "", flagged)
    user_classes = _typed([r.get("user_class", "") for r in rows], _STRING, "", flagged)
    success = _typed([r.get("success", True) for r in rows], _BOOL, True, flagged)
    if "extra" in set().union(*rows):
        flagged |= np.array(["extra" in r for r in rows], dtype=bool)
    try:
        numeric = [np.array(column, dtype=float)
                   for column in (times, latencies, tz_offsets)]
    except OverflowError:
        # An integer beyond float range: ``float()`` in the per-row path
        # raises it at its own row, after the rows before it.
        numeric = [np.zeros(n) for _ in range(3)]
        flagged[:] = True
    return Columns(
        times=numeric[0], latencies_ms=numeric[1], actions=actions,
        user_ids=user_ids, user_classes=user_classes,
        success=np.array(success, dtype=bool), tz_offsets=numeric[2],
    ), flagged


def _line_batches(fh) -> Iterator[Tuple[Sequence[int], List[str]]]:
    """``(line numbers, stripped lines)`` of up to
    :data:`~repro.telemetry.ingest.BATCH_ROWS` lines, blank lines dropped."""
    first = 1
    for raw in batches(fh):
        linenos: Sequence[int] = range(first, first + len(raw))
        first += len(raw)
        texts = list(map(str.strip, raw))
        if "" in texts:
            keep = [i for i, line in enumerate(texts) if line]
            linenos = [linenos[i] for i in keep]
            texts = [texts[i] for i in keep]
        if texts:
            yield linenos, texts


def _read_lines(linenos: Sequence[int], texts: List[str],
                collector: IngestCollector, builder: ColumnBuilder) -> int:
    """Parse a run of lines into ``builder`` in file order; returns how many
    rows took the per-row path.

    A run is parsed with ONE ``json.loads`` over its lines joined by
    ``",\\n"`` inside ``[...]`` — but only when every line is *flat*: it
    starts with ``{``, ends with ``}``, holds no other ``{`` and no ``[``.
    That guard makes the batch parse equal to one parse per line. JSON
    strings cannot hold a raw newline, so no string spans a ``",\\n"``
    joint and every line's first ``{`` and last ``}`` are structural. With
    no other ``{`` or ``[`` there are no arrays or nested objects, so the
    ``}`` ending a line closes the object its ``{`` opened, and the joint's
    ``,`` separates top-level elements: the parse succeeds only if every
    line is exactly one object, and then each element is the object that
    ``json.loads(line)`` returns. (Unguarded, the two invalid lines
    ``{"a":[{}`` and ``{}]},{}`` would join into two valid objects.)

    Lines that are not flat, and the line a parse error points at, go
    through the per-row path; the runs between them are parsed again on
    their own. After a parse error the rest of the run is parsed in
    windows that start at twice the clean stretch before the error and
    double while they parse, so a line with many bad neighbours is not
    joined and parsed again once per bad line. A parsed run is typed and
    validated as columns by :func:`~repro.telemetry.ingest.ingest_batch`.
    Either way every row is kept, counted or quarantined by the same code
    as in :func:`iter_jsonl`, in file order.
    """
    fallback = 0
    # A stack of (line numbers, lines, window), the next run last. A run
    # with a window is known to be flat: its first ``window`` lines are
    # parsed next and the rest waits with the window doubled.
    pending: list = [(linenos, texts, None)]
    while pending:
        linenos, texts, window = pending.pop()

        def per_row(i: int) -> None:
            record = _row_record(linenos[i], texts[i], collector)
            if record is not None:
                builder.add_record(record)

        n = len(texts)
        if n < _MIN_RUN:
            for i in range(n):
                per_row(i)
            fallback += n
            continue
        if window is None:
            body = ",\n".join(texts)
            # The flat-line guard for all lines at once: "\n" occurs only
            # in joints, so "},\n{" counts the lines ending in "}" and
            # starting with "{" across every joint.
            if not (body[0] == "{" and body[-1] == "}" and "[" not in body
                    and body.count("},\n{") == n - 1 and body.count("{") == n):
                pending.extend(reversed(_split(linenos, texts, [
                    i for i, line in enumerate(texts) if not _flat(line)])))
                continue
        else:
            if window < n:
                pending.append((linenos[window:], texts[window:], 2 * window))
                linenos, texts, n = linenos[:window], texts[:window], window
            body = ",\n".join(texts)
        try:
            rows = json.loads("[" + body + "]")
        except json.JSONDecodeError as exc:
            # The line holding the error (a joint counts with the line
            # before it) goes per-row.
            k = body.count("\n", 0, max(exc.pos - 1, 0))
            pending.extend(reversed([
                (linenos[:k], texts[:k], k),
                (linenos[k:k + 1], texts[k:k + 1], 1),
                (linenos[k + 1:], texts[k + 1:], max(2 * k, _MIN_RUN)),
            ]))
            continue
        except ValueError:
            # Not a syntax error (e.g. an integer over the digit limit):
            # the per-row path raises it exactly where it would.
            pending.extend(reversed(_split(linenos, texts, list(range(n)))))
            continue
        columns, flagged = _parsed_columns(rows)
        fallback += ingest_batch(columns, flagged, per_row, builder, collector)
    return fallback


def _split(linenos: Sequence[int], texts: List[str], at: List[int]) -> list:
    """The lines at ``at`` alone, and the flat runs between them whole."""
    n = len(texts)
    pieces: list = []
    start = 0
    for i in at + [n]:
        if i > start:
            pieces.append((linenos[start:i], texts[start:i], i - start))
        if i < n:
            pieces.append((linenos[i:i + 1], texts[i:i + 1], 1))
        start = i + 1
    return pieces


def read_jsonl(
    path: PathLike,
    policy: PolicyLike = None,
) -> LogStore:
    """Read a whole JSONL file into a :class:`LogStore`.

    Lines are parsed in batches of
    :data:`~repro.telemetry.ingest.BATCH_ROWS` straight into columns; any
    line a batch cannot vouch for goes through the per-row path of
    :func:`iter_jsonl`, so the store, report, quarantine file and strict
    error are exactly those of ``LogStore.from_records(iter_jsonl(...))``.

    The returned store carries the read's
    :class:`~repro.telemetry.ingest.IngestReport` as ``ingest_report``
    (``n_skipped_rows`` exposes the lenient-mode skip count that used to be
    silently lost). Raises :class:`~repro.errors.IngestError` when the
    policy's error budget is exceeded, and
    :class:`~repro.errors.ConfigError` when the file does not exist.
    """
    path = Path(path)
    collector = IngestCollector(IngestPolicy.of(policy), source=path)
    builder = ColumnBuilder()
    fallback = 0
    with obs.span("ingest", format="jsonl") as span, _open_text(path, "r") as fh:
        for linenos, texts in _line_batches(fh):
            fallback += _read_lines(linenos, texts, collector, builder)
        store = builder.store()
        report = collector.report
        span.set(rows=report.n_rows, rows_bad=report.n_bad, fallback_rows=fallback)
        store.ingest_report = collector.finish()
    return store
