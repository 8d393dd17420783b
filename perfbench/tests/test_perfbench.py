"""Self-tests: the benchmark emits what it declares and its checks can go red.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from clock import SpeedClock
from repro.core.pipeline import AutoSens
from repro.core.result import PreferenceResult
from repro.stats.histogram import latency_bins
from repro.workload.preference import paper_curve

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A store small enough for a quick test (about 6k actions).
TINY = (2.0, 100, 60.0)


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slices-small",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    done = run_bench(trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = result["metrics"]
    for metric in DECLARED[section]:
        assert NAME.fullmatch(metric["name"])
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(emitted[metric["name"]]["value"], (int, float))
    assert set(emitted) == {m["name"] for m in DECLARED[section]}


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def failed_share(result: workloads.PassResult) -> float:
    return result.failed / result.attempted


@pytest.fixture
def ingest(tmp_path):
    workload = workloads.IngestDisk(seed=5, workdir=tmp_path)
    workload.scale = TINY
    workload.setup(SpeedClock())
    workload.prepare()
    assert failed_share(workload.run_pass(SpeedClock())) == 0.0
    return workload


def test_truncated_jsonl_fails(ingest):
    path = ingest.paths[-1]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))
    assert failed_share(ingest.run_pass(SpeedClock())) > 0.0


def test_corrupted_jsonl_fails(ingest):
    path = ingest.paths[len(ingest.paths) // 2]
    lines = path.read_text().splitlines(keepends=True)
    lines[len(lines) // 2] = '{"time": "not a number", "action": "SelectMail"}\n'
    path.write_text("".join(lines))
    assert failed_share(ingest.run_pass(SpeedClock())) > 0.0


def test_perturbed_curve_fails(tmp_path, monkeypatch):
    workload = workloads.SlicesSmall(seed=5, workdir=tmp_path)
    workload.scale = (7.0, 100, 60.0)
    workload.STORES = 1
    workload.setup(SpeedClock())
    assert failed_share(workload.run_pass(SpeedClock())) == 0.0

    original = AutoSens.preference_curve

    def perturbed(self, *args, **kwargs):
        curve = original(self, *args, **kwargs)
        curve.nlp = curve.nlp * 1.01
        return curve

    monkeypatch.setattr(AutoSens, "preference_curve", perturbed)
    assert failed_share(workload.run_pass(SpeedClock())) > 0.0


def test_truth_check_goes_red_on_a_perturbed_curve():
    bins = latency_bins()
    truth = paper_curve("SelectMail", "business").normalized(bins.centers)
    empty = np.zeros(bins.count)
    curve = PreferenceResult(bins=bins, biased_counts=empty, unbiased_counts=empty,
                             raw_ratio=truth, smoothed_ratio=truth, nlp=truth,
                             reference_ms=300.0)
    anchors = workloads.TRUTH_ANCHORS
    assert workloads.within_truth(curve, "SelectMail", "business", anchors)
    curve.nlp = truth + 2 * workloads.TRUTH_TOL
    assert not workloads.within_truth(curve, "SelectMail", "business", anchors)
