"""Span-level profiling attribution.

:class:`SpanProfiler` piggybacks on the span tree via the tracer's
``profiler`` hook: on every span enter/exit it reads the process CPU clock
(``time.process_time``) and peak RSS (``resource.getrusage``) and
attributes *self* CPU time (total minus time spent in child spans) to the
span's name. The hook **never touches the span record itself** —
trace/metrics/manifest artifacts are byte-identical whether profiling is
on or off (enforced by ``tests/obs/test_profile.py`` and the CLI
byte-identity tests).

The attribution exports into one profile artifact via
:func:`build_profile` / :func:`write_profile`, with folded stacks
(``outer;inner;leaf count``) built from the span tree — the flamegraph
input format consumed by ``flamegraph.pl`` / speedscope.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import _schema

__all__ = [
    "PROFILE_SCHEMA",
    "SpanProfiler",
    "build_profile",
    "write_profile",
    "load_profile",
    "folded_from_spans",
    "top_by_self_time",
]

#: Bump when the profile artifact field set changes.
PROFILE_SCHEMA = 2

try:  # pragma: no cover - resource is POSIX-only; absent means RSS stays 0.
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None


def _peak_rss_kb() -> float:
    """Process peak RSS in KiB (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    if _resource is None:
        return 0.0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        rss /= 1024.0
    return float(rss)


class _Frame:
    __slots__ = ("name", "cpu_enter", "child_cpu", "wall_enter")

    def __init__(self, name: str, cpu_enter: float, wall_enter: float) -> None:
        self.name = name
        self.cpu_enter = cpu_enter
        self.child_cpu = 0.0
        self.wall_enter = wall_enter


class SpanProfiler:
    """Per-span-name CPU (self and total) and peak-RSS attribution.

    The tracer calls :meth:`on_enter` / :meth:`on_exit` around each span's
    lifetime. A parallel frame stack mirrors the tracer's span stack and
    carries a child-CPU accumulator so self time is exact, not estimated.
    Aggregation is by span *name* (like the manifest's ``span_timings``),
    which keeps the artifact small and diffable across runs with different
    span counts.
    """

    def __init__(self) -> None:
        import time

        self._clock = time.process_time
        self._wall = time.perf_counter
        self._stack: List[_Frame] = []
        self.spans: Dict[str, Dict[str, float]] = {}

    # -- tracer hooks --------------------------------------------------------

    def on_enter(self, name: str) -> None:
        self._stack.append(_Frame(name, self._clock(), self._wall()))

    def on_exit(self, name: str) -> None:
        now_cpu = self._clock()
        now_wall = self._wall()
        # Pop down to the matching frame, mirroring the tracer's tolerance
        # for out-of-order exits; unmatched frames fold into their parent.
        while self._stack:
            frame = self._stack.pop()
            if frame.name == name:
                break
        else:
            return
        total_cpu = now_cpu - frame.cpu_enter
        self_cpu = max(0.0, total_cpu - frame.child_cpu)
        if self._stack:
            self._stack[-1].child_cpu += total_cpu
        entry = self.spans.setdefault(name, {
            "count": 0.0, "cpu_self_s": 0.0, "cpu_total_s": 0.0,
            "wall_s": 0.0, "rss_peak_kb": 0.0,
        })
        entry["count"] += 1
        entry["cpu_self_s"] += self_cpu
        entry["cpu_total_s"] += total_cpu
        entry["wall_s"] += now_wall - frame.wall_enter
        entry["rss_peak_kb"] = max(entry["rss_peak_kb"], _peak_rss_kb())

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Aggregates by span name, rounded for a stable artifact."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.spans):
            entry = self.spans[name]
            out[name] = {
                "count": int(entry["count"]),
                "cpu_self_s": round(entry["cpu_self_s"], 6),
                "cpu_total_s": round(entry["cpu_total_s"], 6),
                "wall_s": round(entry["wall_s"], 6),
                "rss_peak_kb": round(entry["rss_peak_kb"], 1),
            }
        return out


def folded_from_spans(span_snapshot: Dict[str, Dict[str, float]],
                      records: Optional[List[Dict[str, Any]]] = None,
                      ) -> List[str]:
    """Folded stacks built from the span *tree* weighted by self-CPU ms.

    When trace records are available the span paths give real nesting
    (``/experiment/sweep/slice 42``); otherwise each profiled name stands
    alone. Values are integer self-CPU milliseconds so flamegraph tooling
    gets whole numbers.
    """
    lines: List[str] = []
    if records:
        # Total wall per path from the trace, scaled into each name's
        # measured self-CPU share.
        path_wall: Dict[str, float] = {}
        name_wall: Dict[str, float] = {}
        for record in records:
            path = str(record.get("path", "")).strip("/")
            if not path:
                continue
            dur = float(record.get("dur_us", 0)) / 1e6
            path_wall[path] = path_wall.get(path, 0.0) + dur
            name = str(record.get("name", ""))
            name_wall[name] = name_wall.get(name, 0.0) + dur
        for path in sorted(path_wall):
            name = path.rsplit("/", 1)[-1]
            prof = span_snapshot.get(name)
            if prof is None or name_wall.get(name, 0.0) <= 0:
                continue
            share = path_wall[path] / name_wall[name]
            value = int(round(prof["cpu_self_s"] * share * 1000))
            if value > 0:
                lines.append(f"{path.replace('/', ';')} {value}")
        if lines:
            return lines
    for name in sorted(span_snapshot):
        value = int(round(span_snapshot[name]["cpu_self_s"] * 1000))
        if value > 0:
            lines.append(f"{name} {value}")
    return lines


def top_by_self_time(span_snapshot: Dict[str, Dict[str, float]],
                     limit: int = 10) -> List[Dict[str, Any]]:
    """Top-N table rows by self CPU time (ties broken by name for stability)."""
    ranked = sorted(
        span_snapshot.items(),
        key=lambda item: (-item[1]["cpu_self_s"], item[0]),
    )
    return [
        {
            "span": name,
            "count": entry["count"],
            "cpu_self_s": entry["cpu_self_s"],
            "cpu_total_s": entry["cpu_total_s"],
            "wall_s": entry["wall_s"],
            "rss_peak_kb": entry["rss_peak_kb"],
        }
        for name, entry in ranked[:limit]
    ]


def build_profile(profiler: Optional[SpanProfiler],
                  records: Optional[List[Dict[str, Any]]] = None,
                  run_id: str = "") -> Dict[str, Any]:
    """The profile artifact from the span profiler (empty without one)."""
    span_snapshot = profiler.snapshot() if profiler is not None else {}
    payload: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "run_id": run_id,
        "spans": span_snapshot,
        "top": top_by_self_time(span_snapshot),
        "folded_spans": folded_from_spans(span_snapshot, records),
    }
    return payload


def write_profile(payload: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Serialize the profile artifact atomically."""
    return _schema.write_json(payload, path, indent=2)


PROFILE_SPAN_FIELDS = ("count", "cpu_self_s", "cpu_total_s", "wall_s",
                       "rss_peak_kb")

_FOLDED_STACK = re.compile(r"^\S.* \d+$")


def load_profile(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a profile artifact back, validating on read: numeric span
    fields with self CPU within total CPU, a top table sorted by self
    CPU, and ``stack count`` folded lines."""
    payload, _, errors = _schema.read_object(path, "profile", PROFILE_SCHEMA)
    spans = payload.get("spans")
    if not isinstance(spans, dict):
        _schema.raise_if(errors + [f"{path}: spans missing"])
    for name, entry in spans.items():
        if _schema.missing(entry, PROFILE_SPAN_FIELDS) or not all(
                _schema.is_number(entry[f]) for f in PROFILE_SPAN_FIELDS):
            errors.append(f"{path}: span {name!r} lacks numeric "
                          f"{PROFILE_SPAN_FIELDS}")
        elif entry["cpu_self_s"] > entry["cpu_total_s"] + 1e-6:
            errors.append(f"{path}: span {name!r} self CPU exceeds total CPU")
    top = payload.get("top", [])
    self_times = [row.get("cpu_self_s") if isinstance(row, dict) else None
                  for row in top] if isinstance(top, list) else [None]
    if not all(map(_schema.is_number, self_times)):
        errors.append(f"{path}: top is not a list of span rows")
    elif self_times != sorted(self_times, reverse=True):
        errors.append(f"{path}: top table is not sorted by self CPU")
    lines = payload.get("folded_spans", [])
    if not isinstance(lines, list) or not all(
            isinstance(line, str) and _FOLDED_STACK.match(line)
            for line in lines):
        errors.append(f"{path}: folded_spans is not a list of 'stack count'")
    _schema.raise_if(errors)
    return payload
