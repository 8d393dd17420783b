"""Live progress: per-stage completed/total, EWMA throughput, and ETA.

A :class:`ProgressTracker` is installed on the active context by the obs
server (:mod:`repro.obs.serve`). Executors report to it through
:func:`repro.obs.report_progress` — a stage total when a map starts,
completions as tasks finish — and it reads span counts and the current
span path straight from the run's tracer. Its snapshot is the payload
behind the server's ``/progress`` endpoint, the ``autosens top`` terminal
view, and the ``progress.json`` artifact the run registry persists.

Throughput is an exponentially-weighted moving average over task
completions (half-life :data:`DEFAULT_HALFLIFE_S`), so the ETA tracks the
*current* rate rather than the run-lifetime mean — a stage that warmed its
caches reports the faster steady-state rate. All clocks here are wall
clocks: progress is a live view, never a deterministic artifact, and the
tracker only reads tracer state — it never writes it or any RNG.
:func:`load_progress` reads a snapshot back and validates it on read.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs import _schema
from repro.obs.trace import DISABLED_TRACER, aggregate_span_timings

__all__ = [
    "PROGRESS_SCHEMA",
    "DEFAULT_HALFLIFE_S",
    "ProgressTracker",
    "render_progress",
    "snapshot_from_manifest",
    "load_progress",
]

#: Bump when the progress snapshot field set changes incompatibly.
PROGRESS_SCHEMA = 2

#: EWMA half-life for task throughput, in seconds.
DEFAULT_HALFLIFE_S = 5.0

#: Progress states a snapshot can report.
STATES = ("running", "done", "failed")


class _StageProgress:
    """Mutable per-stage accumulator (totals, completions, EWMA rate)."""

    __slots__ = ("total", "done", "started_at", "updated_at", "rate")

    def __init__(self, now: float) -> None:
        self.total: Optional[int] = None
        self.done = 0
        self.started_at = now
        self.updated_at = now
        self.rate: Optional[float] = None  # tasks/s, EWMA


class ProgressTracker:
    """Per-stage progress with ETA, plus span counts read from a tracer.

    Thread-safe enough for its real topology: one pipeline thread reports,
    HTTP handler threads read snapshots — per-stage state is swapped
    atomically under the GIL and the snapshot tolerates mid-update reads
    (it only ever sees a slightly stale frame).
    """

    def __init__(self, tracer: Any = DISABLED_TRACER,
                 clock: Callable[[], float] = time.monotonic,
                 halflife_s: float = DEFAULT_HALFLIFE_S) -> None:
        self.tracer = tracer
        self._clock = clock
        self._halflife_s = max(1e-3, float(halflife_s))
        self._stages: Dict[str, _StageProgress] = {}
        self._stage_order: List[str] = []
        self.state = "running"
        self.started_at = clock()
        self.finished_at: Optional[float] = None
        self.run_id = ""

    def _stage(self, name: str) -> _StageProgress:
        stage = self._stages.get(name)
        if stage is None:
            stage = _StageProgress(self._clock())
            self._stages[name] = stage
            self._stage_order.append(name)
        return stage

    def add_total(self, name: str, total: int) -> None:
        """Announce ``total`` more tasks for stage ``name``."""
        stage = self._stage(name)
        # Several maps over the same task function accumulate one total.
        stage.total = (stage.total or 0) + max(0, total)

    def add_done(self, name: str, done: int) -> None:
        """Count ``done`` completed tasks of stage ``name``."""
        if done <= 0:
            return
        stage = self._stage(name)
        now = self._clock()
        # Clamp the window: a clock that stalls or steps backwards must
        # not turn into a zero/negative dt and an infinite rate.
        dt = max(1e-6, now - stage.updated_at)
        instantaneous = done / dt
        if math.isfinite(instantaneous) and instantaneous >= 0.0:
            if stage.rate is None:
                stage.rate = instantaneous
            else:
                weight = 1.0 - math.exp(-dt / self._halflife_s)
                stage.rate += weight * (instantaneous - stage.rate)
            if stage.rate is not None and \
                    (not math.isfinite(stage.rate) or stage.rate < 0.0):
                stage.rate = None
        stage.done += done
        stage.updated_at = now

    def finish(self, state: str = "done") -> None:
        """Mark the run finished; later reports still count but the
        snapshot reports a terminal state (and stops advertising ETAs)."""
        self.state = state if state in STATES else "done"
        self.finished_at = self._clock()

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready progress frame (the ``/progress`` payload)."""
        now = self.finished_at if self.finished_at is not None else self._clock()
        stages: Dict[str, Any] = {}
        for name in list(self._stage_order):
            stage = self._stages[name]
            # An over-reporting executor (done > total, e.g. retried
            # tasks) must not leak an impossible frame to /progress.
            done = stage.done if stage.total is None \
                else min(stage.done, stage.total)
            entry: Dict[str, Any] = {
                "done": done,
                "total": stage.total,
                "elapsed_s": round(max(0.0, now - stage.started_at), 3),
            }
            rate = stage.rate
            if rate is not None and \
                    (not math.isfinite(rate) or rate < 0.0):
                rate = None
            entry["rate_per_s"] = round(rate, 3) if rate is not None else None
            eta: Optional[float] = None
            if (self.state == "running" and stage.total is not None
                    and rate is not None and rate > 1e-9
                    and stage.total > done):
                eta = (stage.total - done) / rate
                if not math.isfinite(eta) or eta < 0.0:
                    eta = None
            entry["eta_s"] = round(eta, 1) if eta is not None else None
            stages[name] = entry
        return {
            "schema": PROGRESS_SCHEMA,
            "state": self.state,
            "run_id": self.run_id,
            "elapsed_s": round(max(0.0, now - self.started_at), 3),
            "stages": stages,
            "spans": {name: entry["count"] for name, entry in
                      aggregate_span_timings(self.tracer.finished()).items()},
            "current": self.tracer.open_path(),
        }


def snapshot_from_manifest(manifest: Dict[str, Any],
                           wall_s: Optional[float] = None) -> Dict[str, Any]:
    """A progress-shaped frame synthesized from a run manifest.

    Runs recorded without ``--serve-obs`` persist no ``progress.json``;
    ``autosens top`` degrades to this manifest-only summary instead of
    erroring: terminal state from ``exit_status`` and span counts from
    ``span_timings``. Elapsed time is ``wall_s`` — the registry index's
    wall clock for the run — when known, else the longest single span
    (nested spans overlap their parents, so a sum would count them
    twice). The frame satisfies the same schema :func:`load_progress`
    checks, and carries ``"source": "manifest"`` so renderers can label
    it honestly. ``manifest`` is one
    :func:`~repro.obs.manifest.load_manifest` accepts.
    """
    timings = manifest.get("span_timings", {})
    spans = {name: timings[name]["count"] for name in sorted(timings)}
    if wall_s is None:
        wall_s = max((float(entry["seconds"]) for entry in timings.values()),
                     default=0.0)
    exit_status = manifest.get("exit_status", 0)
    state = "done" if exit_status in (0, None) else "failed"
    return {
        "schema": PROGRESS_SCHEMA,
        "state": state,
        "run_id": str(manifest.get("run_id", "") or ""),
        "elapsed_s": round(float(wall_s), 3),
        "stages": {},
        "spans": spans,
        "current": None,
        "source": "manifest",
    }


def load_progress(source: Any) -> Dict[str, Any]:
    """Read a progress snapshot back (a path or a parsed payload),
    validating on read: the state vocabulary, per-stage ``done <= total``,
    and finite non-negative rates and ETAs."""
    payload, where, errors = _schema.read_object(
        source, "progress snapshot", PROGRESS_SCHEMA)
    elapsed = payload.get("elapsed_s")
    if payload.get("state") not in STATES:
        errors.append(f"{where}: bad state {payload.get('state')!r}")
    if not _schema.is_number(elapsed) or elapsed < 0:
        errors.append(f"{where}: bad elapsed_s {elapsed!r}")
    stages = payload.get("stages")
    if not isinstance(stages, dict):
        _schema.raise_if(errors + [f"{where}: stages missing"])
    for name, stage in stages.items():
        stage = stage if isinstance(stage, dict) else {}
        done, total = stage.get("done"), stage.get("total")
        if not _schema.is_count(done):
            errors.append(f"{where}: stage {name!r} has bad done {done!r}")
        elif total is not None and (not _schema.is_count(total)
                                    or done > total):
            errors.append(
                f"{where}: stage {name!r} has done {done} > total {total}")
        errors += [f"{where}: stage {name!r} has bad {key}"
                   for key in ("rate_per_s", "eta_s")
                   if stage.get(key) is not None and not (
                       _schema.is_number(stage[key])
                       and 0 <= stage[key] < math.inf)]
    _schema.raise_if(errors)
    return payload


# ---------------------------------------------------------------------------
# Terminal rendering (`autosens top`).
# ---------------------------------------------------------------------------


def _bar(done: int, total: Optional[int], width: int = 24) -> str:
    if not total:
        return "-" * width
    filled = max(0, min(width, int(round(width * done / total))))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "-"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def render_progress(snapshot: Dict[str, Any], source: str = "") -> str:
    """One ``autosens top`` frame from a progress snapshot."""
    lines = []
    header = f"autosens top — {snapshot.get('state', '?')}"
    if snapshot.get("run_id"):
        header += f"  run {snapshot['run_id']}"
    if source:
        header += f"  [{source}]"
    header += f"  elapsed {snapshot.get('elapsed_s', 0.0):.1f}s"
    lines.append(header)
    stages = snapshot.get("stages") or {}
    if stages:
        lines.append("")
        for name, entry in stages.items():
            done = entry.get("done", 0)
            total = entry.get("total")
            rate = entry.get("rate_per_s")
            frac = f"{done}/{total}" if total else f"{done}"
            rate_s = f"{rate:.1f}/s" if rate is not None else "-"
            lines.append(
                f"  [{_bar(done, total)}] {frac:>11}  {rate_s:>8}  "
                f"eta {_fmt_eta(entry.get('eta_s')):>6}  {name}")
    elif snapshot.get("source") == "manifest":
        lines.append("  (recorded without --serve-obs — "
                     "manifest-only summary)")
    else:
        lines.append("  (no stage progress yet)")
    current = snapshot.get("current")
    if current and snapshot.get("state") == "running":
        lines.append(f"  now: {current}")
    spans = snapshot.get("spans") or {}
    if spans:
        top = sorted(spans.items(), key=lambda kv: (-kv[1], kv[0]))[:6]
        lines.append("  spans: " + "  ".join(f"{n}x{c}" for n, c in top))
    return "\n".join(lines)
