"""Benchmark: the Section 3.5 preference-vs-bottleneck analysis, plus the
perf-regression stage suite behind ``BENCH_pipeline.json``."""

import json

from repro.analysis.perf import run_perf_suite


def test_bottleneck(run_paper_experiment):
    run_paper_experiment("bottleneck")


def test_perf_stages(benchmark, output_dir):
    """Time generator → pipeline → sweep at full scale, old vs new.

    Asserts the acceptance criteria of the perf work: the time-corrected
    multi-reference path runs at least 2x faster than the per-slot /
    per-sample reference, and the exact U weights beat the legacy 12-batch
    redraw loop by at least 5x. The biased halves still agree bitwise
    (checked inside the suite; biased_diff in the stage detail); the legacy
    time fractions and the curves built from them are a Monte Carlo draw,
    so they are held to statistical bounds (~4x the observed full-scale
    noise). The stage report is exported next
    to the other benchmark artifacts; ``tools/bench_report.py`` maintains
    the committed ``BENCH_pipeline.json`` trajectory.
    """
    report = benchmark.pedantic(
        lambda: run_perf_suite(scale="full", seed=0), rounds=1, iterations=1
    )
    print()
    print(report.render())
    (output_dir / "BENCH_pipeline.json").write_text(
        json.dumps({"schema": 1, "scales": {"full": report.to_dict()}}, indent=2) + "\n"
    )

    corrected = report.stage("corrected_multi_reference")
    assert corrected.speedup is not None and corrected.speedup >= 2.0, (
        f"corrected multi-reference path speedup {corrected.speedup}, expected >= 2x"
    )
    assert corrected.max_abs_diff is not None and corrected.max_abs_diff < 0.05, (
        "corrected curves drifted beyond Monte Carlo noise from the legacy path"
    )
    counts = report.stage("slotted_counts")
    assert counts.speedup is not None and counts.speedup >= 5.0, (
        f"exact U speedup {counts.speedup}, expected >= 5x over "
        "the legacy redraw loop"
    )
    assert counts.max_abs_diff is not None and counts.max_abs_diff < 0.01, (
        "unbiased time fractions drifted beyond Monte Carlo noise"
    )
    assert "biased_diff=0 (bitwise)" in counts.detail, (
        "deterministic biased counts diverged from the legacy loops"
    )
