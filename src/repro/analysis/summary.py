"""Run summaries: one table over many experiment outcomes."""

from __future__ import annotations

from typing import List

from repro.analysis.base import ExperimentOutcome
from repro.viz.table import format_table


def summarize(outcomes: List[ExperimentOutcome]) -> str:
    """Render a one-line-per-experiment overview table."""
    rows = []
    for outcome in outcomes:
        n_checks = len(outcome.checks)
        n_passed = sum(1 for check in outcome.checks if check.passed)
        rows.append([
            outcome.experiment_id,
            outcome.title[:52],
            f"{n_passed}/{n_checks}",
            "PASS" if outcome.passed else "FAIL",
        ])
    table = format_table(["experiment", "title", "checks", "status"], rows)
    total = len(outcomes)
    passed = sum(1 for outcome in outcomes if outcome.passed)
    return f"{table}\n{passed}/{total} experiments fully passing"
