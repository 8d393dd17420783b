"""Per-layer timing from outside the program.

A :class:`LayerTracer` replaces public functions of ``repro`` with
wrappers that count calls, raised exceptions and *self* time: a call's wall
time minus the time spent in wrapped calls it made. Self times of all
layers therefore add up to the time covered by any layer, and the rest of a
timed region is its untraced remainder. Nothing under ``src/`` changes; the
wrappers are installed only inside :meth:`LayerTracer.installed`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.pipeline as pipeline
import repro.telemetry.jsonl as jsonl
from repro.core.pipeline import AutoSens
from repro.core.preference import PreferenceComputer
from repro.stats.savgol import SavitzkyGolay
from repro.telemetry.log_store import LogStore
from repro.workload.scenarios import Scenario

#: The curve entry point; also the only layer the untraced run wraps, to
#: time each ``preference_curve`` call, including calls made by sweeps.
CURVE = "core.pipeline.curve"

#: (layer name, owner, attribute). Module owners are patched where the
#: caller looks the name up: ``repro.core.pipeline`` imports its stage
#: functions by name, and the benchmark calls ``jsonl.read_jsonl``.
LAYERS: List[Tuple[str, Any, str]] = [
    ("telemetry.read_jsonl", jsonl, "read_jsonl"),
    ("telemetry.write_jsonl", jsonl, "write_jsonl"),
    ("workload.generate", Scenario, "generate"),
    (CURVE, AutoSens, "preference_curve"),
    ("telemetry.concat", LogStore, "concat"),
    ("telemetry.where", LogStore, "where"),
    ("core.slotted_counts", pipeline, "slotted_counts"),
    ("core.alpha", pipeline, "alpha_from_counts"),
    ("core.alpha", pipeline, "corrected_histograms_from_counts"),
    ("core.quartiles", pipeline, "assign_quartiles"),
    ("core.quartiles", pipeline, "quartile_slices"),
    ("core.preference", PreferenceComputer, "compute"),
    ("stats.savgol", SavitzkyGolay, "__call__"),
]

CURVE_ONLY = [entry for entry in LAYERS if entry[0] == CURVE]


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    failed: int = 0
    #: Wall time of each call (recorded for the curve layer only).
    durations: List[float] = field(default_factory=list)


class LayerTracer:
    """Wraps the given layers while :meth:`installed` is active."""

    def __init__(self, layers: List[Tuple[str, Any, str]] = LAYERS) -> None:
        self.layers = layers
        self.stats: Dict[str, LayerStats] = {}
        self._child_time: List[float] = []
        #: Per layer, (self_s, number of durations) at the last rescale.
        self._mark: Dict[str, Tuple[float, int]] = {}

    def stat(self, layer: str) -> LayerStats:
        return self.stats.setdefault(layer, LayerStats())

    def _wrap(self, layer: str, original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._child_time.append(0.0)
            start = time.perf_counter()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stats = self.stat(layer)
                stats.self_s += elapsed - self._child_time.pop()
                stats.calls += 1
                stats.failed += not ok
                if layer == CURVE:
                    stats.durations.append(elapsed)
                if self._child_time:
                    self._child_time[-1] += elapsed

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in self.layers]
        try:
            for (layer, owner, attr), (_, _, original) in zip(self.layers, saved):
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def rescale(self, factor: float) -> None:
        """Scale all time recorded since the last rescale by ``factor``."""
        for name, stats in self.stats.items():
            base_s, base_n = self._mark.get(name, (0.0, 0))
            stats.self_s = base_s + (stats.self_s - base_s) * factor
            stats.durations[base_n:] = [d * factor for d in stats.durations[base_n:]]
            self._mark[name] = (stats.self_s, len(stats.durations))

