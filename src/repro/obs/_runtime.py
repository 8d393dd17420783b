"""Global observability state shared by the whole process.

One :class:`ObsContext` is installed at a time. The default is
:data:`DISABLED` — a frozen context whose tracer is the no-op singleton and
whose logging threshold sits above every level, so instrumented code paths
cost a couple of attribute loads and nothing else when observability is off.

This module sits below :mod:`repro.obs.log` and the instrumented packages
in the import graph on purpose: it imports only :mod:`repro.obs.trace`
and :mod:`repro.obs.metrics` (leaf modules), which keeps the obs package
free of circular imports no matter which pipeline module is loaded first.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DISABLED_TRACER, Tracer

__all__ = ["ObsContext", "DISABLED", "current", "install"]

#: Numeric thresholds, aligned with the stdlib for familiarity.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: A threshold no real level reaches — logging off.
LEVEL_OFF = 100


class ObsContext:
    """Everything the instrumented pipeline reads at runtime.

    ``enabled`` gates span creation; ``level_no`` gates log emission
    independently (a run may want logs without tracing). ``degradations``
    accumulates free-form notes (e.g. starved slices) for the run manifest;
    ``findings`` accumulates estimator-health probe results
    (:mod:`repro.obs.probes`) for the health report. ``progress`` is the
    :class:`~repro.obs.progress.ProgressTracker` a live server installed,
    or ``None`` when nothing serves ``/progress``. ``manifest`` is the last
    run manifest :func:`repro.obs.manifest.run_manifest` built, which every
    copy of that run's record is written from.
    """

    __slots__ = (
        "enabled", "level_no", "log_json", "log_stream",
        "tracer", "metrics", "deterministic", "run_id", "degradations",
        "findings", "progress", "manifest",
    )

    def __init__(
        self,
        enabled: bool = False,
        level: str = "warning",
        log_json: bool = False,
        log_stream: Optional[TextIO] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        deterministic: bool = False,
        run_id: str = "",
    ) -> None:
        self.enabled = enabled
        self.level_no = LEVELS.get(level, LEVEL_OFF) if enabled else LEVEL_OFF
        self.log_json = log_json
        self.log_stream = log_stream if log_stream is not None else sys.stderr
        if tracer is not None:
            self.tracer = tracer
        elif enabled:
            self.tracer = Tracer(trace_id=run_id or "autosens",
                                 deterministic=deterministic)
        else:
            self.tracer = DISABLED_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.deterministic = deterministic
        self.run_id = run_id
        self.degradations: List[Dict[str, Any]] = []
        self.findings: List[Dict[str, Any]] = []
        self.progress: Optional[Any] = None
        self.manifest: Optional[Dict[str, Any]] = None


#: The do-nothing context active unless :func:`repro.obs.configure` ran.
DISABLED = ObsContext(enabled=False)

_state: ObsContext = DISABLED


def current() -> ObsContext:
    """The active context (never ``None``; defaults to :data:`DISABLED`)."""
    return _state


def install(ctx: ObsContext) -> ObsContext:
    """Swap the active context; returns the previous one for restoration."""
    global _state
    previous = _state
    _state = ctx
    return previous
