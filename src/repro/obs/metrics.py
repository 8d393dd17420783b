"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a plain in-memory map from metric name to a
typed instrument; there is no background thread, no sockets, no deps. Two
exporters are provided: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text exposition format (scrape-compatible, also pleasant to read
in a terminal) and :meth:`MetricsRegistry.snapshot` returns a JSON-ready
dict with deterministic ordering — byte-stable output for a fixed workload.

Labels are passed as keyword arguments and stored as sorted tuples, so
``inc("x", a="1", b="2")`` and ``inc("x", b="2", a="1")`` hit the same
series. Histograms use *fixed* bucket bounds chosen at creation; this keeps
the exporter deterministic and the memory bounded.
:func:`load_metrics_prometheus` and :func:`load_metrics_json` read either
export back and validate it on read.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, SchemaError
from repro.obs import _schema

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS_S",
    "SUMMARY_QUANTILES",
    "bucket_quantile",
    "load_metrics_json",
    "load_metrics_prometheus",
    "write_metrics_json",
    "write_metrics_prometheus",
]

#: Seconds buckets suiting both sub-ms cache hits and multi-second sweeps.
DEFAULT_DURATION_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

#: Quantiles summarized from histogram buckets in both exporters.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format: inside a quoted
    label value, backslash, double-quote and newline must be escaped."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
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


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int],
                    q: float) -> float:
    """Quantile estimate from fixed buckets by linear interpolation.

    ``counts`` holds one count per finite bound plus the trailing ``+Inf``
    count. Within the crossing bucket the value is interpolated linearly
    (the first bucket's lower edge is 0 — these are durations/sizes); a
    crossing that lands in the ``+Inf`` bucket clamps to the last finite
    bound, which is the most honest answer fixed buckets can give.
    """
    total = sum(counts)
    if total <= 0:
        return float("nan")
    target = q * total
    cumulative = 0
    for i, bound in enumerate(bounds):
        previous = cumulative
        cumulative += counts[i]
        if cumulative >= target and counts[i] > 0:
            lo = bounds[i - 1] if i else 0.0
            fraction = (target - previous) / counts[i]
            return lo + (bound - lo) * fraction
    return float(bounds[-1])


class Histogram:
    """Fixed-bucket distribution with cumulative (``le``) bucket counts."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_S) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigError(f"histogram {name} needs sorted, non-empty buckets")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        # per label-set: ([count per bucket incl. +Inf], sum, count)
        self.series: Dict[LabelKey, List[Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        state = self.series.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self.series[key] = state
        counts, _, _ = state
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        state[1] += value
        state[2] += 1

    def value(self, **labels: Any) -> Tuple[float, int]:
        """(sum, count) for one label set."""
        state = self.series.get(_label_key(labels))
        if state is None:
            return (0.0, 0)
        return (state[1], state[2])

    def quantiles(self, **labels: Any) -> Dict[str, float]:
        """Bucket-interpolated summary quantiles for one label set."""
        state = self.series.get(_label_key(labels))
        if state is None:
            return {}
        return self._quantiles_for(state[0])

    def _quantiles_for(self, counts: Sequence[int]) -> Dict[str, float]:
        return {
            name: round(bucket_quantile(self.buckets, counts, q), 6)
            for name, q in SUMMARY_QUANTILES
        }

    def render(self) -> Iterable[str]:
        for key in sorted(self.series):
            counts, total, n = self.series[key]
            cumulative = 0
            for bound, c in zip(self.buckets, counts):
                cumulative += c
                lab = _render_labels(key, [("le", _fmt(bound))])
                yield f"{self.name}_bucket{lab} {cumulative}"
            cumulative += counts[-1]
            lab = _render_labels(key, [("le", "+Inf")])
            yield f"{self.name}_bucket{lab} {cumulative}"
            yield f"{self.name}_sum{_render_labels(key)} {_fmt(total)}"
            yield f"{self.name}_count{_render_labels(key)} {n}"

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key in sorted(self.series):
            counts, total, n = self.series[key]
            out[_render_labels(key) or ""] = {
                "buckets": {_fmt(b): c for b, c in zip(self.buckets, counts)},
                "inf": counts[-1],
                "sum": total,
                "count": n,
                "quantiles": self._quantiles_for(counts),
            }
        return out

    def render_quantile_comments(self) -> Iterable[str]:
        """``# QUANTILE`` comment lines — scrapers ignore ``#``, humans and
        :func:`load_metrics_prometheus` read the p50/p90/p99 summaries."""
        for key in sorted(self.series):
            parts = " ".join(
                f"{name}={_fmt(value)}"
                for name, value in self._quantiles_for(self.series[key][0]).items()
            )
            yield f"# QUANTILE {self.name}{_render_labels(key)} {parts}"


Metric = Union[Counter, Gauge, Histogram]


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

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_S) -> Histogram:
        return self._get(name, "histogram", lambda: Histogram(name, help, buckets))

    # -- convenience write paths (used by repro.obs facade) -------------------

    def inc(self, name: str, amount: float = 1.0, help: str = "",
            **labels: Any) -> None:
        self.counter(name, help).inc(amount, **labels)

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: Any) -> None:
        self.gauge(name, help).set(value, **labels)

    def observe(self, name: str, value: float, help: str = "",
                buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_S,
                **labels: Any) -> None:
        self.histogram(name, help, buckets).observe(value, **labels)

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
            if isinstance(metric, Histogram):
                lines.extend(metric.render_quantile_comments())
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


_KINDS = ("counter", "gauge", "histogram")

_PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?'
    r' (?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$')

_PROM_QUANTILE = re.compile(
    r'^# QUANTILE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[^}]*\})?'
    r'(?: p\d+=(?:[0-9eE+.\-]+|NaN))+$')


def _floats(texts: Sequence[str]) -> Optional[List[float]]:
    try:
        return [float(text) for text in texts]
    except ValueError:
        return None


def load_metrics_prometheus(path: Union[str, Path]) -> Dict[str, float]:
    """Read Prometheus text back as ``{series: value}``, validating on
    read: known ``# TYPE`` kinds, parseable samples of declared metrics,
    and a monotone ``# QUANTILE`` summary for every histogram."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read metrics {path}: {exc}") from exc
    errors: List[str] = []
    declared: Dict[str, str] = {}
    summarized = set()
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        parts = line.split()
        if line.startswith("# TYPE "):
            if len(parts) != 4 or parts[3] not in _KINDS:
                errors.append(f"{where}: malformed TYPE line")
            else:
                declared[parts[2]] = parts[3]
        elif line.startswith("# QUANTILE "):
            match = _PROM_QUANTILE.match(line)
            values = _floats(re.findall(r" p\d+=(\S+)", line))
            if match is None or values is None or values != sorted(values):
                errors.append(f"{where}: QUANTILE line malformed or "
                              f"quantiles not monotone")
            else:
                summarized.add(match.group("name"))
        elif line.strip() and not line.startswith("#"):
            match = _PROM_SAMPLE.match(line)
            value = _floats([match.group("value")]) if match else None
            name = match.group("name") if match else ""
            if value is None or (name not in declared and re.sub(
                    r"_(bucket|sum|count)$", "", name) not in declared):
                errors.append(f"{where}: unparseable or undeclared sample "
                              f"{line!r}")
            else:
                samples[name + (match.group("labels") or "")] = value[0]
    errors += [f"{path}: histogram {name} has no # QUANTILE summary"
               for name, kind in sorted(declared.items())
               if kind == "histogram" and name not in summarized]
    _schema.raise_if(errors or (
        [] if samples else [f"{path}: no metric samples"]))
    return samples


def load_metrics_json(source: Any) -> Dict[str, Any]:
    """Read a registry snapshot back (a path or a parsed payload),
    validating on read: known kinds, series maps, and histogram series
    with monotone p50/p90/p99 quantiles and a count equal to their
    buckets."""
    payload = _schema.read_json(source, "metrics snapshot")
    where = _schema.owner(source, "metrics snapshot")
    if not isinstance(payload, dict) or not payload:
        raise SchemaError(f"{where}: snapshot missing or empty")
    errors = []
    for name, entry in payload.items():
        if _schema.missing(entry, ("kind", "series")) or \
                entry["kind"] not in _KINDS or \
                not isinstance(entry["series"], dict):
            errors.append(f"{where}: {name} lacks a known kind or series")
            continue
        for labels, series in entry["series"].items():
            if entry["kind"] != "histogram":
                continue
            series = series if isinstance(series, dict) else {}
            q = series.get("quantiles")
            values = [q.get(k) for k in ("p50", "p90", "p99")] \
                if isinstance(q, dict) else [None]
            buckets = series.get("buckets")
            counts = [*buckets.values(), series.get("inf")] \
                if isinstance(buckets, dict) else [None]
            if not all(map(_schema.is_number, values)) or \
                    not all(map(_schema.is_count, counts)):
                errors.append(f"{where}: {name}{labels}: quantiles or "
                              f"bucket counts missing")
            elif values != sorted(values):
                errors.append(f"{where}: {name}{labels}: quantiles not "
                              f"monotone {values}")
            elif sum(counts) != series.get("count"):
                errors.append(f"{where}: {name}{labels}: count disagrees "
                              f"with its buckets")
    _schema.raise_if(errors)
    return payload
