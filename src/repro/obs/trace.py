"""Nested span tracing with deterministic identifiers.

A :class:`Tracer` records *spans* — named, attributed, nested intervals on a
run clock — and exports them as JSONL span records or as Chrome
``trace_event`` JSON that opens directly in ``chrome://tracing`` / Perfetto.

Two properties distinguish this tracer from an off-the-shelf one:

- **Deterministic span IDs.** A span's id is a content hash of its
  identity, never of wall time or memory addresses. Path-based spans hash
  ``(namespace, nesting path, occurrence)``; spans created with an explicit
  ``key`` hash ``(trace_id, name, key)`` only — so the *same task* gets the
  *same span id* whether it runs serially, in a process-pool worker, or is
  served from a checkpoint journal on a resumed run.
- **Deterministic clock (opt-in).** With ``deterministic=True`` timestamps
  come from a monotonic event counter instead of ``perf_counter``, so two
  runs of the same seeded workload produce byte-identical trace artifacts.

The disabled path is a pair of shared singletons (:data:`DISABLED_TRACER`,
:data:`NOOP_SPAN`) that allocate nothing per call — tracing off must be
near-free (see ``tests/obs/test_noop.py``).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.errors import SchemaError
from repro.obs import _schema

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "DISABLED_TRACER",
    "span_identity",
    "aggregate_span_timings",
    "chrome_trace_events",
    "write_trace_jsonl",
    "write_chrome_trace",
    "load_trace_jsonl",
    "load_chrome_trace",
]

#: Bump when the span-record field set changes.
TRACE_SCHEMA = 1

#: Fields every span JSONL record carries.
SPAN_FIELDS = ("name", "id", "parent", "path", "tid", "start_us", "dur_us",
               "attrs")

#: Fields every Chrome trace event carries.
EVENT_FIELDS = ("ph", "name", "cat", "ts", "dur", "pid", "tid", "args")

#: Hex characters kept from the sha256 digest for a span id.
_ID_LEN = 16


def span_identity(trace_id: str, name: str, key: str) -> str:
    """The deterministic span id for an explicitly keyed span.

    Pure function of ``(trace_id, name, key)`` — independent of nesting,
    call order, process, or clock. Executors use this so the same task
    yields the same id on every backend and on checkpoint resume.
    """
    raw = f"{trace_id}\x00key\x00{name}\x00{key}".encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:_ID_LEN]


def _path_identity(namespace: str, path: str, occurrence: int) -> str:
    raw = f"{namespace}\x00path\x00{path}\x00{occurrence}".encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:_ID_LEN]


class Span:
    """One traced interval; use as a context manager.

    Identity (id, parent, path) is assigned on ``__enter__`` so nesting
    reflects runtime structure, not construction order. ``set(**attrs)``
    adds attributes mid-span; an exception escaping the block records its
    class name under the ``error`` attribute before propagating.
    """

    __slots__ = (
        "tracer", "name", "key", "attrs",
        "span_id", "parent_id", "path", "tid",
        "start_us", "dur_us",
    )

    def __init__(self, tracer: "Tracer", name: str, key: Optional[str],
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.key = key
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.path = ""
        self.tid = tracer.tid
        self.start_us = 0
        self.dur_us = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (event ticks × 1 µs when deterministic)."""
        return self.dur_us / 1e6

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._exit(self)
        return False

    def to_record(self) -> Dict[str, Any]:
        """The exportable form of a *finished* span."""
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "path": self.path,
            "tid": self.tid,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    duration_s = 0.0
    dur_us = 0
    span_id = ""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


#: The one no-op span instance; ``obs.span(...)`` returns it (never a fresh
#: object) whenever tracing is off.
NOOP_SPAN = _NoopSpan()


class _DisabledTracer:
    """Tracer stand-in installed while observability is off."""

    enabled = False
    tid = 0

    def span(self, name: str, key: Optional[str] = None, **attrs: Any) -> _NoopSpan:
        return NOOP_SPAN

    def finished(self) -> List[Dict[str, Any]]:
        return []

    def open_path(self) -> Optional[str]:
        return None

    def adopt(self, records: Iterable[Dict[str, Any]],
              parent_id: Optional[str] = None, tid: Optional[int] = None) -> None:
        pass


DISABLED_TRACER = _DisabledTracer()


class Tracer:
    """Collects finished span records on one run clock.

    ``trace_id`` names the run and seeds every keyed span id; ``namespace``
    (defaults to ``trace_id``) additionally seeds path-based ids — worker
    processes use a per-chunk namespace so their internal spans cannot
    collide while their *task* spans (keyed) still match the serial run.
    """

    enabled = True

    def __init__(self, trace_id: str = "autosens",
                 namespace: Optional[str] = None,
                 deterministic: bool = False,
                 tid: int = 0) -> None:
        self.trace_id = trace_id
        self.namespace = namespace if namespace is not None else trace_id
        self.deterministic = deterministic
        self.tid = tid
        # Optional repro.obs.profile.SpanProfiler; the hook reads its own
        # clocks and never touches span records, so trace artifacts are
        # byte-identical whether profiling is attached or not.
        self.profiler: Optional[Any] = None
        self._t0 = time.perf_counter()
        self._tick = 0
        self._stack: List[Span] = []
        self._occurrences: Dict[str, int] = {}
        self._records: List[Dict[str, Any]] = []

    # -- clock ---------------------------------------------------------------

    def now_us(self) -> int:
        """Microseconds on the run clock (event count when deterministic)."""
        if self.deterministic:
            self._tick += 1
            return self._tick
        return int((time.perf_counter() - self._t0) * 1e6)

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, key: Optional[str] = None, **attrs: Any) -> Span:
        """Create a span; enter it with ``with`` to start the clock."""
        return Span(self, name, key, attrs)

    def _enter(self, span: Span) -> None:
        parent = self._stack[-1] if self._stack else None
        span.parent_id = parent.span_id if parent is not None else None
        parent_path = parent.path if parent is not None else ""
        span.path = f"{parent_path}/{span.name}"
        if span.key is not None:
            span.span_id = span_identity(self.trace_id, span.name, span.key)
        else:
            n = self._occurrences.get(span.path, 0)
            self._occurrences[span.path] = n + 1
            span.span_id = _path_identity(self.namespace, span.path, n)
        span.start_us = self.now_us()
        self._stack.append(span)
        if self.profiler is not None:
            self.profiler.on_enter(span.name)

    def _exit(self, span: Span) -> None:
        if self.profiler is not None:
            self.profiler.on_exit(span.name)
        end = self.now_us()
        span.dur_us = end - span.start_us
        # Tolerate out-of-order exits (a span kept past its parent) by
        # popping down to the span rather than asserting strict nesting.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._records.append(span.to_record())

    # -- record access -------------------------------------------------------

    def finished(self) -> List[Dict[str, Any]]:
        """All completed span records, in completion (post-)order."""
        return list(self._records)

    def open_path(self) -> Optional[str]:
        """Path of the innermost open span, or ``None`` outside any span.

        Safe to call from another thread: the one-element slice is taken
        atomically, so a span closing mid-read cannot raise.
        """
        top = self._stack[-1:]
        return top[0].path if top else None

    def adopt(self, records: Iterable[Dict[str, Any]],
              parent_id: Optional[str] = None, tid: Optional[int] = None) -> None:
        """Merge finished records from another tracer (e.g. a worker).

        Roots among ``records`` (``parent is None``) are re-parented onto
        ``parent_id``; ``tid`` restamps the thread lane for trace viewers.
        """
        for record in records:
            adopted = dict(record)
            if adopted.get("parent") is None:
                adopted["parent"] = parent_id
            if tid is not None:
                adopted["tid"] = tid
            self._records.append(adopted)


def aggregate_span_timings(records: Iterable[Dict[str, Any]]
                           ) -> Dict[str, Dict[str, Any]]:
    """Per-span-name totals (``{name: {count, seconds}}``) from records.

    The shape run manifests carry under ``span_timings``. ``seconds`` is
    inclusive: each record's whole duration, children included.
    :func:`repro.obs.diff.series` derives the ``span_seconds[*]``,
    ``span_share[*]`` and ``span_count[*]`` series that ``obs diff`` and
    ``watch`` compare from it.
    """
    timings: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = str(record.get("name", ""))
        entry = timings.setdefault(name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += float(record.get("dur_us", 0)) / 1e6
    for entry in timings.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return {name: timings[name] for name in sorted(timings)}


# -- exporters ----------------------------------------------------------------


def _json_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Attributes coerced to JSON-stable scalars (repr for exotic values)."""
    out: Dict[str, Any] = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def trace_jsonl_lines(records: Iterable[Dict[str, Any]]) -> Iterable[str]:
    """One compact, key-sorted JSON object per finished span."""
    for record in records:
        payload = dict(record)
        payload["attrs"] = _json_attrs(payload.get("attrs", {}))
        payload["schema"] = TRACE_SCHEMA
        yield json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_trace_jsonl(records: Iterable[Dict[str, Any]],
                      path: Union[str, Path]) -> int:
    """Write span records as JSONL; returns the number of lines written."""
    path = Path(path)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_jsonl_lines(records):
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


def chrome_trace_events(records: Iterable[Dict[str, Any]],
                        pid: int = 0) -> List[Dict[str, Any]]:
    """Span records as Chrome ``trace_event`` complete ("X") events."""
    events = []
    for record in records:
        args = _json_attrs(record.get("attrs", {}))
        args["span_id"] = record["id"]
        if record.get("parent"):
            args["parent_id"] = record["parent"]
        events.append({
            "ph": "X",
            "name": record["name"],
            "cat": "autosens",
            "ts": record["start_us"],
            "dur": record["dur_us"],
            "pid": pid,
            "tid": record.get("tid", 0),
            "args": args,
        })
    return events


def write_chrome_trace(records: Iterable[Dict[str, Any]],
                       path: Union[str, Path],
                       trace_id: str = "autosens") -> int:
    """Write records as a Chrome/Perfetto trace file; returns event count.

    The output is a single JSON object (``{"traceEvents": [...]}``) with
    sorted keys and no whitespace variation, so a deterministic-clock trace
    is byte-reproducible.
    """
    events = chrome_trace_events(records)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "schema": TRACE_SCHEMA},
    }
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return len(events)


def _unresolved(parent: Any, ids: set) -> bool:
    return parent is not None and (not isinstance(parent, str)
                                   or parent not in ids)


def load_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read span JSONL back, validating on read: every line a stamped
    record with every span field, and every parent a span in the file."""
    rows, errors = _schema.read_json_lines(path, "span trace")
    records = {}
    for lineno, record in rows:
        absent = _schema.missing(record, SPAN_FIELDS)
        if absent or record.get("schema") != TRACE_SCHEMA \
                or not isinstance(record["id"], str):
            errors.append(f"{path}:{lineno}: not a schema-{TRACE_SCHEMA} "
                          f"span record (missing {absent})")
        else:
            records[f"{path}:{lineno}"] = record
    ids = {record["id"] for record in records.values()}
    errors += [f"{where}: parent {record['parent']!r} not in file"
               for where, record in records.items()
               if _unresolved(record["parent"], ids)]
    _schema.raise_if(errors or ([] if rows else [f"{path}: no span records"]))
    return list(records.values())


def load_chrome_trace(source: Any) -> Dict[str, Any]:
    """Read a Chrome trace back (a path or a parsed payload), validating on
    read: the schema stamp, complete ("X") events with every event field,
    and parents that resolve."""
    payload = _schema.read_json(source, "chrome trace")
    where = _schema.owner(source, "chrome trace")
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list) or not events:
        raise SchemaError(f"{where}: traceEvents missing or empty")
    other = payload.get("otherData")
    errors = [] if isinstance(other, dict) and other.get(
        "schema") == TRACE_SCHEMA else [f"{where}: schema != {TRACE_SCHEMA}"]
    complete = {}
    for i, event in enumerate(events):
        absent = _schema.missing(event, EVENT_FIELDS)
        if absent or event["ph"] != "X" or not isinstance(event["args"], dict):
            errors.append(f"{where}: event {i} is not a complete event "
                          f"(missing {absent})")
        else:
            complete[i] = event["args"]
    ids = {a.get("span_id") for a in complete.values()
           if isinstance(a.get("span_id"), str)}
    errors += [f"{where}: event {i} parent {args['parent_id']!r} unresolved"
               for i, args in complete.items()
               if _unresolved(args.get("parent_id"), ids)]
    _schema.raise_if(errors)
    return payload
