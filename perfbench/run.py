#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The program
is imported from ``src/`` of the checkout this file sits in. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: (name, unit) of the metrics each mode prints; BENCHMARK.json declares them.
END_TO_END = [
    ("setup_s", "s"),
    ("actions_per_s", "1/s"),
    ("curve_ms_p50", "ms"),
    ("curve_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("telemetry.read_jsonl.s", "s"),
    ("telemetry.read_jsonl.rows", "count"),
    ("telemetry.read_jsonl.rows_skipped", "count"),
    ("telemetry.concat.s", "s"),
    ("telemetry.write_jsonl.s", "s"),
    ("workload.generate.s", "s"),
    ("workload.generate.acceptance", "ratio"),
    ("core.slotted_counts.s", "s"),
    ("core.slotted_counts.calls", "count"),
    ("core.slotted_counts.unbiased.s", "s"),
    ("core.slotted_counts.biased.s", "s"),
    ("telemetry.where.s", "s"),
    ("telemetry.where.calls", "count"),
    ("stats.savgol.s", "s"),
    ("stats.savgol.calls", "count"),
    ("core.preference.s", "s"),
    ("core.alpha.s", "s"),
    ("core.quartiles.s", "s"),
    ("core.slice_cache.hit_ratio", "ratio"),
    ("core.pipeline.curve.s", "s"),
    ("core.pipeline.curve.calls", "count"),
    ("core.pipeline.curve.failed", "count"),
    ("untraced.s", "s"),
    ("trace.overhead", "ratio"),
    ("failed_share", "ratio"),
]
SETUP_LAYERS = ("telemetry.write_jsonl", "workload.generate")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reset_peak_rss() -> None:
    """Make the peak-RSS high-water mark start again from live data.

    Freed heap that set-up left behind is first handed back to the system,
    so that the mark starts from what the timed region can still use.
    """
    gc.collect()
    ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


@dataclass
class Pass:
    traced: bool
    #: Reference seconds of the pass's public calls (see ``clock.py``).
    seconds: float
    #: Reference seconds per wall second over the pass.
    factor: float
    result: Any
    layers: Dict[str, Any]
    spans: Dict[str, Dict[str, Any]]


def clocked(clock, tracer, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn`` with ``tracer`` installed and rescaled by ``clock``.

    Returns its result, reference seconds and reference-per-wall factor.
    """
    wall0, seconds0 = clock.wall, clock.seconds
    clock.listeners = [tracer.rescale]
    try:
        with tracer.installed():
            result = fn()
        clock.flush()
    finally:
        clock.listeners = []
    seconds = clock.seconds - seconds0
    return result, seconds, seconds / max(clock.wall - wall0, 1e-12)


def set_up(workload, clock, trace: bool) -> Tuple[List[float], Dict[str, float]]:
    """Run the set-up SETUP_REPEATS times.

    Returns each set-up's reference seconds and, when traced, the mean
    reference self seconds per set-up of each layer.
    """
    from layers import LayerTracer

    times: List[float] = []
    layer_s: Dict[str, float] = {}
    for _ in range(SETUP_REPEATS):
        tracer = LayerTracer() if trace else LayerTracer([])
        _, seconds, _ = clocked(clock, tracer, lambda: workload.setup(clock))
        times.append(seconds)
        for name, stats in tracer.stats.items():
            layer_s[name] = layer_s.get(name, 0.0) + stats.self_s / SETUP_REPEATS
    workload.prepare()
    return times, layer_s


def timed_passes(workload, clock, seconds: float, trace: bool) -> List[Pass]:
    """Closed loop of passes for ``seconds``; with ``trace`` they alternate.

    Untraced passes wrap only ``preference_curve``, to time each call.
    Traced passes wrap every layer and turn on the program's own spans.
    """
    import repro.obs as obs
    from layers import CURVE_ONLY, LayerTracer

    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        kinds = {p.traced for p in passes}
        if (time.perf_counter() - start >= seconds
                and kinds == ({False, True} if trace else {False})):
            break
        traced = trace and len(passes) % 2 == 1
        spans: Dict[str, Dict[str, Any]] = {}
        if traced:
            tracer = LayerTracer()
            with obs.session(enabled=True, level="error"):
                result, used, factor = clocked(clock, tracer,
                                               lambda: workload.run_pass(clock))
                spans = obs.aggregate_span_timings(obs.trace_records())
            for entry in spans.values():
                entry["seconds"] *= factor
        else:
            tracer = LayerTracer(CURVE_ONLY)
            result, used, factor = clocked(clock, tracer, lambda: workload.run_pass(clock))
        passes.append(Pass(traced, used, factor, result, tracer.stats, spans))
    return passes


def end_to_end(setup_times: List[float], passes: List[Pass], peak_mb: float) -> Dict:
    import numpy as np
    from layers import CURVE

    # A pass makes the same curve calls in the same order. Each call's
    # latency is its median over passes; the percentiles are over calls.
    # Pooling every sample instead would let the number of passes, which
    # the host's speed sets, decide which slice the percentile lands on.
    calls = min(len(p.layers[CURVE].durations) for p in passes)
    per_call = np.median([p.layers[CURVE].durations[:calls] for p in passes], axis=0)
    p50, p90 = np.percentile(per_call, [50, 90]) * 1e3
    return {
        "setup_s": statistics.median(setup_times),
        "actions_per_s": statistics.median(p.result.actions / p.seconds for p in passes),
        "curve_ms_p50": float(p50),
        "curve_ms_p90": float(p90),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, setup_layer_s: Dict[str, float], passes: List[Pass],
              failed_share: float) -> Dict:
    traced = [p for p in passes if p.traced]
    results = [p.result for p in traced]

    def mean(values) -> float:
        return sum(values) / len(traced)

    def layer(name: str, field: str) -> float:
        return mean(getattr(p.layers[name], field) for p in traced if name in p.layers)

    def span(name: str) -> float:
        return mean(p.spans.get(name, {}).get("seconds", 0.0) for p in traced)

    lookups = sum(r.cache_hits + r.cache_misses for r in results)
    metrics = {
        "telemetry.read_jsonl.rows": mean(r.rows_read for r in results),
        "telemetry.read_jsonl.rows_skipped": mean(r.rows_skipped for r in results),
        "workload.generate.acceptance": workload.acceptance,
        "core.slotted_counts.unbiased.s": span("slotted_counts.unbiased"),
        "core.slotted_counts.biased.s": span("slotted_counts.biased"),
        "core.slice_cache.hit_ratio":
            sum(r.cache_hits for r in results) / lookups if lookups else 0.0,
        "untraced.s": mean(p.seconds - sum(s.self_s for s in p.layers.values())
                           for p in traced),
        "trace.overhead":
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in passes if not p.traced),
        "failed_share": failed_share,
    }
    for name in SETUP_LAYERS:
        metrics[f"{name}.s"] = setup_layer_s.get(name, 0.0)
    for name, _ in PER_LAYER:
        if name not in metrics:
            base, field = name.rsplit(".", 1)
            metrics[name] = layer(base, "self_s" if field == "s" else field)
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> Tuple[Dict, int, int, str]:
    from clock import SpeedClock
    from layers import CURVE
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    clock = SpeedClock()
    setup_times, setup_layer_s = set_up(workload, clock, bool(args.trace))
    reset_peak_rss()
    passes = timed_passes(workload, clock, args.seconds, bool(args.trace))
    peak_mb = peak_rss_mb()

    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    if args.trace:
        values = per_layer(workload, setup_layer_s, passes, failed / attempted)
        units = PER_LAYER
    else:
        values = end_to_end(setup_times, passes, peak_mb)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    samples = sum(len(p.layers[CURVE].durations) for p in passes if not p.traced)
    note = (f"# workload={args.workload} seed={args.seed} trace={args.trace} "
            f"passes={len(passes)} untraced_curve_samples={samples} "
            f"speed_factors={['%.3f' % p.factor for p in passes]} "
            f"setup_s={['%.3f' % t for t in setup_times]}")
    return metrics, attempted, failed, note


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        metrics, attempted, failed, note = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
