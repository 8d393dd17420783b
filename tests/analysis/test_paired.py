"""The paired-twin harness's one verdict rule.

Both suites grade a perturbed twin the same way: within tolerance on the
common support is the table's label (``recovered`` or ``robust``); beyond
it the cell must be loud — a probe, a health warning or a typed refusal —
or it is ``silent-bias``.
"""

import pytest

from repro.analysis.paired import (
    VERDICT_EXPLAINED,
    VERDICT_SILENT_BIAS,
    paired_verdict,
)
from repro.analysis.recovery import VERDICT_RECOVERED
from repro.analysis.sensitivity import VERDICT_ROBUST

CLEAN_HEALTH = {"verdict": "ok", "counts": {"ok": 3, "warn": 0, "fail": 0}}
WARN_HEALTH = {"verdict": "warn", "counts": {"ok": 2, "warn": 1, "fail": 0}}
QUIET_PROBES = [{"probe": "latency_regime_shift", "severity": "ok"}]
LOUD_PROBES = [{"probe": "latency_regime_shift", "severity": "warn"}]
REFUSAL = "InsufficientDataError: too few actions"

CASES = {
    # name: (distance, n_compared, probes, health, error, within?)
    "in-tolerance": (0.05, 40, LOUD_PROBES, WARN_HEALTH, None, True),
    "loud-via-probe": (0.30, 40, LOUD_PROBES, CLEAN_HEALTH, None, False),
    "loud-via-health": (0.30, 40, QUIET_PROBES, WARN_HEALTH, None, False),
    "loud-via-refusal": (float("inf"), 0, [], CLEAN_HEALTH, REFUSAL, False),
    "quiet-drift": (0.30, 40, QUIET_PROBES, CLEAN_HEALTH, None, False),
}
EXPECTED = {
    "loud-via-probe": VERDICT_EXPLAINED,
    "loud-via-health": VERDICT_EXPLAINED,
    "loud-via-refusal": VERDICT_EXPLAINED,
    "quiet-drift": VERDICT_SILENT_BIAS,
}


@pytest.mark.parametrize("label", [VERDICT_RECOVERED, VERDICT_ROBUST])
@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_rule(case, label):
    distance, n_compared, probes, health, error, within = CASES[case]
    verdict = paired_verdict(distance, n_compared, 0.08, probes, health,
                             error, within_label=label)
    assert verdict == (label if within else EXPECTED[case])
