"""Observability for the AutoSens pipeline: logs, spans, metrics, manifests.

Zero-dependency and **off by default**: every instrumented call site first
checks the active :class:`~repro.obs._runtime.ObsContext`, and with the
default disabled context a span is the shared no-op singleton and a log
call is one integer comparison — the pipeline's benchmarks must not notice
the instrumentation exists.

Typical use::

    import repro.obs as obs

    obs.configure(level="info", trace=True, deterministic=True,
                  run_id="bottleneck-seed11")
    with obs.span("experiment", experiment="bottleneck"):
        ...
    records = obs.trace_records()

The module-level helpers (:func:`span`, :func:`inc`, :func:`set_gauge`,
:func:`get_logger`) always act on the *currently
installed* context, so library code never holds references to a particular
run's tracer or registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, TextIO

from repro.obs import _runtime
from repro.obs._runtime import LEVELS, ObsContext
from repro.obs.diff import (
    diff_artifacts,
    diff_exit_code,
    diff_paths,
    render_diff,
    write_diff,
)
from repro.obs.health import (
    HealthReport,
    build_health_report,
    load_health_report,
    write_health_report,
)
from repro.obs.log import Logger, get_logger
from repro.obs.manifest import (
    build_manifest,
    file_digest,
    load_manifest,
    manifest_rows,
    run_manifest,
    run_mark,
    write_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    write_metrics_json,
    write_metrics_prometheus,
)
from repro.obs.probes import HealthFinding
from repro.obs.progress import (
    ProgressTracker,
    render_progress,
    snapshot_from_manifest,
)
from repro.obs.watch import (
    build_watch_report,
    detect_change_point,
    evaluate_slos,
    load_slo_config,
    render_watch,
    robust_baseline,
    watch_exit_code,
    write_watch_artifact,
)
from repro.obs.profile import (
    SpanProfiler,
    build_profile,
    load_profile,
    write_profile,
)
from repro.obs.trace import (
    DISABLED_TRACER,
    NOOP_SPAN,
    Span,
    Tracer,
    aggregate_span_timings,
    chrome_trace_events,
    span_identity,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "ObsContext",
    "configure",
    "disable",
    "session",
    "enabled",
    "current",
    "span",
    "get_logger",
    "Logger",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "span_identity",
    "trace_records",
    "MetricsRegistry",
    "metrics",
    "inc",
    "set_gauge",
    "record_degradation",
    "findings",
    "profiler",
    "HealthFinding",
    "HealthReport",
    "build_health_report",
    "write_health_report",
    "load_health_report",
    "SpanProfiler",
    "build_profile",
    "write_profile",
    "load_profile",
    "diff_artifacts",
    "diff_paths",
    "diff_exit_code",
    "render_diff",
    "write_diff",
    "aggregate_span_timings",
    "build_manifest",
    "run_manifest",
    "run_mark",
    "write_manifest",
    "load_manifest",
    "manifest_rows",
    "file_digest",
    "write_trace_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "write_metrics_json",
    "write_metrics_prometheus",
    "report_progress",
    "ProgressTracker",
    "render_progress",
    "snapshot_from_manifest",
    "robust_baseline",
    "detect_change_point",
    "load_slo_config",
    "evaluate_slos",
    "build_watch_report",
    "render_watch",
    "watch_exit_code",
    "write_watch_artifact",
]


def configure(
    enabled: bool = True,
    level: str = "warning",
    log_json: bool = False,
    log_stream: Optional[TextIO] = None,
    trace: bool = True,
    deterministic: bool = False,
    run_id: str = "",
    profile: bool = False,
) -> ObsContext:
    """Install a fresh observability context and return it.

    ``trace=False`` keeps logging/metrics while spans stay no-ops. The
    previous context is discarded — runs are expected to configure once at
    entry (the CLI does this from ``--log-level``/``--trace-out`` flags).
    ``profile=True`` attaches a :class:`SpanProfiler` to the tracer; the
    profiler reads its own clocks and never touches span records, so every
    other artifact stays byte-identical with profiling on or off.
    """
    tracer = None if trace else DISABLED_TRACER
    ctx = ObsContext(
        enabled=enabled,
        level=level,
        log_json=log_json,
        log_stream=log_stream,
        tracer=tracer,
        deterministic=deterministic,
        run_id=run_id,
    )
    if profile and ctx.tracer.enabled:
        ctx.tracer.profiler = SpanProfiler()
    _runtime.install(ctx)
    return ctx


def disable() -> None:
    """Restore the default do-nothing context."""
    _runtime.install(_runtime.DISABLED)


@contextmanager
def session(**kwargs: Any) -> Iterator[ObsContext]:
    """``configure(**kwargs)`` for a block, restoring the prior context after.

    The restore-on-exit shape is what tests want; production entry points
    usually call :func:`configure` directly.
    """
    previous = _runtime.current()
    ctx = configure(**kwargs)
    try:
        yield ctx
    finally:
        _runtime.install(previous)


def current() -> ObsContext:
    """The active context (the disabled singleton when unconfigured)."""
    return _runtime.current()


def enabled() -> bool:
    """Is observability (and span tracing specifically) turned on?"""
    ctx = _runtime.current()
    return ctx.enabled and ctx.tracer.enabled


def span(name: str, key: Optional[str] = None, **attrs: Any):
    """A span on the active tracer — the shared no-op when disabled.

    Call-sites building attribute dicts for hot-loop spans should guard on
    :func:`enabled` first; for coarse spans just call this directly.
    """
    return _runtime.current().tracer.span(name, key=key, **attrs)


def trace_records() -> List[Dict[str, Any]]:
    """All finished span records on the active tracer."""
    return _runtime.current().tracer.finished()


def metrics() -> MetricsRegistry:
    """The active context's metrics registry."""
    return _runtime.current().metrics


def inc(name: str, amount: float = 1.0, help: str = "", **labels: Any) -> None:
    """Increment a counter on the active registry (no-op cheap when off)."""
    ctx = _runtime.current()
    if not ctx.enabled:
        return
    ctx.metrics.inc(name, amount, help=help, **labels)


def set_gauge(name: str, value: float, help: str = "", **labels: Any) -> None:
    """Set a gauge on the active registry."""
    ctx = _runtime.current()
    if not ctx.enabled:
        return
    ctx.metrics.set_gauge(name, value, help=help, **labels)


def record_degradation(kind: str, **detail: Any) -> None:
    """Note a degradation for the run manifest (and the degradation counter)."""
    ctx = _runtime.current()
    if not ctx.enabled:
        return
    entry: Dict[str, Any] = {"kind": kind}
    entry.update(detail)
    ctx.degradations.append(entry)
    ctx.metrics.inc("autosens_degradations_total", 1.0, kind=kind)


def report_progress(stage: str, total: Optional[int] = None,
                    done: int = 0) -> None:
    """Tell the installed progress tracker that a map over ``stage``
    started with ``total`` tasks, or that ``done`` more of them finished.

    A no-op unless a live server installed a tracker on the context.
    """
    tracker = _runtime.current().progress
    if tracker is None:
        return
    if total is not None:
        tracker.add_total(stage, total)
    tracker.add_done(stage, done)


def findings() -> List[Dict[str, Any]]:
    """The findings accumulated on the active context (a copy)."""
    return list(_runtime.current().findings)


def profiler() -> Optional[SpanProfiler]:
    """The active tracer's span profiler, if one is attached."""
    return getattr(_runtime.current().tracer, "profiler", None)
