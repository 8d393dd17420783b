"""Component micro-benchmarks: throughput of the pipeline's hot paths.

Unlike the per-figure benches (timed once end-to-end), these use
pytest-benchmark's repeated rounds to give stable per-component timings:
telemetry generation, the unbiased estimator, per-slot counting, SG
smoothing, and JSONL IO.
"""

import numpy as np
import pytest

from repro.core.alpha import slotted_counts
from repro.core.unbiased import draw_unbiased_samples
from repro.stats.histogram import latency_bins
from repro.stats.savgol import savgol_smooth
from repro.telemetry import read_jsonl, write_jsonl
from repro.workload import owa_scenario


@pytest.fixture(scope="module")
def medium_result():
    return owa_scenario(seed=7, duration_days=3.0, n_users=250,
                        candidates_per_user_day=120.0).generate()


def test_generator_throughput(benchmark):
    scenario = owa_scenario(seed=7, duration_days=1.0, n_users=150,
                            candidates_per_user_day=100.0)
    result = benchmark(scenario.generate)
    assert len(result.logs) > 1000


def test_unbiased_draw_speed(benchmark, medium_result):
    logs = medium_result.logs
    draw = benchmark(
        lambda: draw_unbiased_samples(logs, n_samples=2 * len(logs), rng=1)
    )
    assert draw.selected_indices.size == 2 * len(logs)


def test_slotted_counts_speed(benchmark, medium_result):
    logs = medium_result.logs
    bins = latency_bins()
    counts = benchmark(
        lambda: slotted_counts(logs, bins)
    )
    assert counts.biased_counts.sum() > 0


def test_savgol_speed(benchmark):
    rng = np.random.default_rng(3)
    values = rng.normal(size=300)  # one latency grid's worth
    out = benchmark(lambda: savgol_smooth(values, window=101, degree=3))
    assert out.shape == values.shape


def test_savgol_speed_with_nans(benchmark):
    """A real curve's NaN share: an unstable tail plus scattered gaps."""
    rng = np.random.default_rng(4)
    values = rng.normal(size=300)
    values[rng.random(300) < 0.2] = np.nan
    values[150:] = np.nan
    assert 0.55 <= np.isnan(values).mean() <= 0.65
    out = benchmark(lambda: savgol_smooth(values, window=101, degree=3))
    assert out.shape == values.shape


def test_jsonl_write_speed(benchmark, medium_result, tmp_path):
    logs = medium_result.logs
    records = logs.to_records()[:20_000]
    path = tmp_path / "bench.jsonl"
    count = benchmark(lambda: write_jsonl(records, path))
    assert count == 20_000


def test_jsonl_read_speed(benchmark, medium_result, tmp_path):
    logs = medium_result.logs
    path = tmp_path / "bench.jsonl"
    write_jsonl(logs.to_records()[:20_000], path)
    store = benchmark(lambda: read_jsonl(path))
    assert len(store) == 20_000


def test_jsonl_read_speed_dirty(benchmark, medium_result, tmp_path):
    """1 % bad rows scattered through 20 k: each bad row splits its batch."""
    path = tmp_path / "dirty.jsonl"
    write_jsonl(medium_result.logs.to_records()[:20_000], path)
    lines = path.read_text().splitlines()
    bad = ["{definitely not json", '{"time":1.0,"action":"Search"}',
           '{"time":1.0,"action":"Search","latency_ms":NaN}']
    rng = np.random.default_rng(3)
    for k, i in enumerate(rng.choice(len(lines), size=200, replace=False)):
        lines[i] = bad[k % len(bad)]
    path.write_text("\n".join(lines) + "\n")
    store = benchmark(lambda: read_jsonl(path, policy="lenient"))
    assert len(store) == 19_800
    assert store.n_skipped_rows == 200


def test_full_curve_speed(benchmark, medium_result):
    from repro.core import AutoSens, AutoSensConfig

    logs = medium_result.logs
    curve = benchmark(
        lambda: AutoSens(AutoSensConfig(seed=5)).preference_curve(
            logs, action="SelectMail")
    )
    assert curve.n_actions > 1000
