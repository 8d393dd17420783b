"""The CI perf gate, proven red.

The gate records traced ``experiment bottleneck`` runs into a registry and
checks them with ``autosens watch --check --slo tests/obs/perf_slo.toml``.
Clean runs must meet both span-share budgets; each reverted hot path,
injected here by monkeypatch only, must breach the budget that names it.
"""

from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
from repro.cli.main import main
from repro.obs.registry import RunRegistry
from repro.obs.watch import build_watch_report, load_slo_config, watch_exit_code
from repro.stats.savgol import SavitzkyGolay
from tests.core.legacy_reference import _legacy_slotted_counts
from tests.stats.test_savgol import reference_smooth

PERF_SLO = Path(__file__).parent / "perf_slo.toml"

#: The CI job records this many runs; the SLO window spans all of them.
N_RUNS = 3


def _lstsq_smoother(monkeypatch):
    """Revert the smoother to the per-bin lstsq filter."""
    monkeypatch.setattr(
        SavitzkyGolay, "__call__",
        lambda self, values: reference_smooth(values, self.window, self.degree))


def _monte_carlo_u(monkeypatch):
    """Revert U estimation to the per-slot Monte Carlo redraw loop."""
    monkeypatch.setattr(pipeline, "slotted_counts", _legacy_slotted_counts)


REVERSIONS = {
    "clean": (None, set()),
    "lstsq-smoother": (_lstsq_smoother, {"span_share[preference_compute]"}),
    "monte-carlo-u": (_monte_carlo_u, {"span_share[slotted_counts]"}),
}


@pytest.mark.parametrize("case", sorted(REVERSIONS))
def test_perf_gate(case, tmp_path, monkeypatch):
    revert, expected_breaches = REVERSIONS[case]
    if revert is not None:
        revert(monkeypatch)
    runs_dir = tmp_path / "bench-runs"
    for _ in range(N_RUNS):
        assert main([
            "experiment", "bottleneck", "--scale", "full", "--seed", "11",
            "--no-plots", "--runs-dir", str(runs_dir),
        ]) == 0

    report = build_watch_report(
        RunRegistry(runs_dir), slos=load_slo_config(PERF_SLO))
    breaches = {b["series"] for b in report["slo"]["breaches"]}
    assert breaches == expected_breaches
    assert watch_exit_code(report) == (1 if expected_breaches else 0)
