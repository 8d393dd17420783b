"""A bounded, non-blocking in-process event bus for live telemetry.

The bus carries *typed events* — span opens/closes, metric deltas, health
findings, degradations, supervisor state changes, executor stage/task
completions — from the instrumented hot paths to pluggable *sinks*: the
ring buffer behind the ``/events`` endpoint, the progress tracker behind
``/progress`` and ``autosens top``, or anything else exposing ``offer``.

Three invariants keep the bus safe to compile into the hot paths:

- **No sink, no work.** ``publish`` on a bus without sinks is one attribute
  load and a falsy check; call sites additionally guard on
  :attr:`EventBus.active` before building payload dicts. A run without a
  sink attached produces byte-identical artifacts and consumes zero RNG —
  the bus never touches the tracer clock, span ids, metrics, or any
  estimator state.
- **Never block, never raise.** Sinks are bounded: a sink that cannot keep
  up *drops the oldest events* and counts them in :attr:`EventSink.dropped`
  (surfaced in ``/progress`` and the ``autosens_obs_events_dropped_total``
  accounting) instead of back-pressuring the pipeline. A sink whose
  ``offer`` raises is counted, not propagated.
- **Events are data.** An event is a plain dict (``seq``, ``ts``, ``type``
  plus payload) so sinks can serialize it straight to NDJSON. ``ts`` is
  wall-clock and informational only — determinism lives in the artifacts,
  not the live stream.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.obs import _schema

__all__ = [
    "EVENT_TYPES",
    "EVENTS_SCHEMA",
    "EventBus",
    "EventSink",
    "event_lines",
    "load_events",
]

#: Bump when the event field set changes incompatibly.
EVENTS_SCHEMA = 1

#: The closed vocabulary of event types the bus carries.
EVENT_TYPES = (
    "span_open",     # a span entered (name/path/attrs)
    "span_close",    # a span finished (adds dur_us; adopted=True for workers)
    "metric",        # a counter/gauge/histogram write through the facade
    "finding",       # a health probe finding was recorded
    "degradation",   # a degradation was recorded
    "supervisor",    # breaker/deadline/watchdog/memory state change
    "stage",         # an executor announced a stage's task total
    "tasks",         # one or more tasks completed on an executor
    "run",           # run lifecycle (started/finished)
    "slo",           # a watch SLO evaluation verdict (met/breaching)
)

#: Default per-sink buffer bound; ~a few hundred KB of events at most.
DEFAULT_SINK_MAXLEN = 4096


class EventSink:
    """A bounded ring buffer of events with explicit drop accounting.

    ``offer`` never blocks: past ``maxlen`` the *oldest* buffered event is
    evicted (a live tail wants fresh events) and :attr:`dropped` counts the
    loss. ``tail``/``drain`` serve readers; both are thread-safe against a
    publisher on another thread (the HTTP server reads from handler
    threads while the pipeline publishes).
    """

    def __init__(self, maxlen: int = DEFAULT_SINK_MAXLEN,
                 name: str = "sink") -> None:
        self.name = name
        self.maxlen = int(maxlen)
        self.dropped = 0
        self._events: Deque[Dict[str, Any]] = deque()
        self._lock = threading.Lock()

    def offer(self, event: Dict[str, Any]) -> None:
        """Buffer one event, evicting (and counting) the oldest when full."""
        with self._lock:
            if len(self._events) >= self.maxlen:
                self._events.popleft()
                self.dropped += 1
            self._events.append(event)

    def tail(self, n: Optional[int] = None,
             since_seq: Optional[int] = None) -> List[Dict[str, Any]]:
        """The last ``n`` buffered events (non-destructive), optionally only
        those with ``seq`` strictly greater than ``since_seq``."""
        with self._lock:
            events = list(self._events)
        if since_seq is not None:
            events = [e for e in events if e.get("seq", 0) > since_seq]
        if n is not None and n >= 0:
            events = events[-n:]
        return events

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return everything buffered."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def __len__(self) -> int:
        return len(self._events)


class EventBus:
    """Fan events out to attached sinks; inert (and near-free) without any.

    One bus lives on each :class:`~repro.obs._runtime.ObsContext`. Sinks
    attach through :func:`repro.obs.attach_sink`, which also wires the
    tracer's span listener — a bus with no sinks is never consulted by the
    tracer at all.
    """

    def __init__(self) -> None:
        self._sinks: List[Any] = []
        self._lock = threading.Lock()
        self.seq = 0
        self.published = 0
        self.sink_errors = 0

    @property
    def active(self) -> bool:
        """Is at least one sink attached? Call sites guard on this before
        building event payloads, keeping the no-sink path allocation-free."""
        return bool(self._sinks)

    def attach(self, sink: Any) -> Any:
        """Attach a sink (anything with ``offer(event)``); returns it."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)
        return sink

    def detach(self, sink: Any) -> None:
        """Detach a sink; unknown sinks are ignored."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def publish(self, type: str, **payload: Any) -> None:
        """Deliver one typed event to every sink; no-op without sinks.

        Delivery is synchronous but bounded (sinks buffer or drop, never
        block) and exception-safe (a broken sink is counted and skipped).
        """
        sinks = self._sinks
        if not sinks:
            return
        self.seq += 1
        self.published += 1
        event: Dict[str, Any] = {
            "seq": self.seq,
            "ts": round(time.time(), 6),
            "type": type,
        }
        event.update(payload)
        for sink in sinks:
            try:
                sink.offer(event)
            except Exception:
                self.sink_errors += 1

    def dropped(self) -> int:
        """Total events dropped across attached buffering sinks."""
        return sum(int(getattr(sink, "dropped", 0)) for sink in self._sinks)

    def stats(self) -> Dict[str, Any]:
        """Bus accounting for ``/progress`` and the run registry."""
        return {
            "sinks": len(self._sinks),
            "published": self.published,
            "dropped": self.dropped(),
            "sink_errors": self.sink_errors,
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def event_lines(events: Iterable[Dict[str, Any]]) -> Iterable[str]:
    """Events as compact NDJSON lines (the ``/events`` wire format)."""
    for event in events:
        payload = {str(k): _jsonable(v) for k, v in event.items()}
        payload.setdefault("schema", EVENTS_SCHEMA)
        yield json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_events(path: Any) -> List[Dict[str, Any]]:
    """Read an NDJSON event tail back, validating on read: stamped events
    with a type from :data:`EVENT_TYPES`, a positive ``ts`` and strictly
    increasing ``seq``."""
    rows, errors = _schema.read_json_lines(path, "events")
    last_seq = 0
    for lineno, event in rows:
        event = event if isinstance(event, dict) else {}
        seq, ts = event.get("seq"), event.get("ts")
        if event.get("schema") != EVENTS_SCHEMA or \
                event.get("type") not in EVENT_TYPES or \
                not _schema.is_number(ts) or ts <= 0:
            errors.append(f"{path}:{lineno}: not a schema-{EVENTS_SCHEMA} "
                          f"event with a known type and a positive ts")
        if not _schema.is_count(seq) or seq <= last_seq:
            errors.append(f"{path}:{lineno}: seq {seq!r} not strictly "
                          f"increasing (after {last_seq})")
        else:
            last_seq = seq
    _schema.raise_if(errors or ([] if rows else [f"{path}: no events"]))
    return [event for _, event in rows]
