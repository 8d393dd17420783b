"""Process-local metrics: counters and gauges.

A :class:`MetricsRegistry` is a plain in-memory map from metric name to a
typed instrument; there is no background thread, no sockets, no deps. Two
exporters are provided: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text exposition format (scrape-compatible, also pleasant to read
in a terminal) and :meth:`MetricsRegistry.snapshot` returns a JSON-ready
dict with deterministic ordering — byte-stable output for a fixed workload.

Labels are passed as keyword arguments and stored as sorted tuples, so
``inc("x", a="1", b="2")`` and ``inc("x", b="2", a="1")`` hit the same
series. :meth:`MetricsRegistry.merge` folds another registry in (a process
worker's, say): counters add and gauges take the other's value.
:func:`load_metrics_prometheus` and :func:`load_metrics_json` read either
export back and validate it on read.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from repro.errors import ConfigError, SchemaError
from repro.obs import _schema

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "load_metrics_json",
    "load_metrics_prometheus",
    "write_metrics_json",
    "write_metrics_prometheus",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format: inside a quoted
    label value, backslash, double-quote and newline must be escaped."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Prometheus-style number rendering: integers without a trailing .0."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def render(self) -> Iterable[str]:
        for key in sorted(self.series):
            yield f"{self.name}{_render_labels(key)} {_fmt(self.series[key])}"

    def snapshot(self) -> Dict[str, float]:
        return {_render_labels(key) or "": v
                for key, v in sorted(self.series.items())}


class Gauge(Counter):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self.series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount


Metric = Union[Counter, Gauge]


class MetricsRegistry:
    """Get-or-create home for the process's metrics.

    Re-registering an existing name with the same kind returns the existing
    instrument; a kind clash raises :class:`~repro.errors.ConfigError` (a
    silent re-type would corrupt both series).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}")
            return metric
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help))

    def series(self, name: str) -> Dict[LabelKey, float]:
        """``name``'s values by label tuple; empty, and nothing registered,
        when no instrument of that name exists."""
        metric = self._metrics.get(name)
        return dict(metric.series) if metric is not None else {}

    # -- convenience write paths (used by repro.obs facade) -------------------

    def inc(self, name: str, amount: float = 1.0, help: str = "",
            **labels: Any) -> None:
        self.counter(name, help).inc(amount, **labels)

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: Any) -> None:
        self.gauge(name, help).set(value, **labels)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s series into this registry.

        Counters add; a gauge series takes ``other``'s value, so merging
        registries in input order leaves each gauge at its last write. A
        kind clash raises, as on registration.
        """
        for name, metric in other._metrics.items():
            cls = type(metric)
            mine = self._get(name, metric.kind, lambda: cls(name, metric.help))
            add = metric.kind == "counter"
            for key, value in metric.series.items():
                if add:
                    value += mine.series.get(key, 0.0)
                mine.series[key] = value

    # -- exporters ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, deterministically ordered."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready nested dict of every series, deterministically ordered."""
        return {
            name: {"kind": metric.kind, "series": metric.snapshot()}
            for name, metric in sorted(self._metrics.items())
        }

    def __len__(self) -> int:
        return len(self._metrics)


def write_metrics_prometheus(registry: MetricsRegistry,
                             path: Union[str, Path]) -> None:
    """Write the registry in Prometheus text format."""
    Path(path).write_text(registry.render_prometheus(), encoding="utf-8")


def write_metrics_json(registry: MetricsRegistry,
                       path: Union[str, Path]) -> None:
    """Write the registry snapshot as compact, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(registry.snapshot(), fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


_KINDS = ("counter", "gauge")

_PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?'
    r' (?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$')


def load_metrics_prometheus(path: Union[str, Path]) -> Dict[str, float]:
    """Read Prometheus text back as ``{series: value}``, validating on
    read: known ``# TYPE`` kinds, parseable samples of declared metrics,
    and no negative counter."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read metrics {path}: {exc}") from exc
    errors: List[str] = []
    declared: Dict[str, str] = {}
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        parts = line.split()
        if line.startswith("# TYPE "):
            if len(parts) != 4 or parts[3] not in _KINDS:
                errors.append(f"{where}: malformed TYPE line")
            else:
                declared[parts[2]] = parts[3]
        elif line.strip() and not line.startswith("#"):
            match = _PROM_SAMPLE.match(line)
            name = match.group("name") if match else ""
            if name not in declared:
                errors.append(f"{where}: unparseable or undeclared sample "
                              f"{line!r}")
                continue
            value = float(match.group("value"))
            if declared[name] == "counter" and value < 0:
                errors.append(f"{where}: counter {name} is negative")
            samples[name + (match.group("labels") or "")] = value
    _schema.raise_if(errors or (
        [] if samples else [f"{path}: no metric samples"]))
    return samples


def load_metrics_json(source: Any) -> Dict[str, Any]:
    """Read a registry snapshot back (a path or a parsed payload),
    validating on read: known kinds, series maps of numbers, and no
    negative counter."""
    payload = _schema.read_json(source, "metrics snapshot")
    where = _schema.owner(source, "metrics snapshot")
    if not isinstance(payload, dict) or not payload:
        raise SchemaError(f"{where}: snapshot missing or empty")
    errors = []
    for name, entry in payload.items():
        if _schema.missing(entry, ("kind", "series")) or \
                entry["kind"] not in _KINDS or \
                not isinstance(entry["series"], dict) or \
                not all(map(_schema.is_number, entry["series"].values())):
            errors.append(f"{where}: {name} lacks a known kind or a series "
                          f"map of numbers")
        elif entry["kind"] == "counter" and \
                any(v < 0 for v in entry["series"].values()):
            errors.append(f"{where}: counter {name} is negative")
    _schema.raise_if(errors)
    return payload
