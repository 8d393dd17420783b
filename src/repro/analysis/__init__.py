"""Per-figure analysis drivers and the experiment registry."""

from repro.analysis.base import FULL, SMALL, Check, ExperimentOutcome, Scale
from repro.analysis.bottleneck import run_bottleneck
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.fig_locality import run_fig1, run_fig2
from repro.analysis.fig_methodology import run_fig3, run_table1
from repro.analysis.fig_preferences import run_fig4, run_fig5, run_fig6
from repro.analysis.fig_time import run_fig7, run_fig8, run_fig9
from repro.analysis.recovery import (
    RECOVERY_FIXTURES,
    RECOVERY_SCALES,
    RecoveryFixture,
    RecoveryOutcome,
    run_recovery,
    run_recovery_suite,
)
from repro.analysis.regions_ext import run_regions
from repro.analysis.sensitivity import (
    DEFAULT_SENSITIVITY_NAMES,
    SENSITIVITY_FIXTURES,
    SENSITIVITY_SCALES,
    SensitivityFixture,
    SensitivityOutcome,
    run_sensitivity,
    run_sensitivity_suite,
)
from repro.analysis.sessions_ext import run_sessions
from repro.analysis.summary import summarize

__all__ = [
    "Scale",
    "SMALL",
    "FULL",
    "Check",
    "ExperimentOutcome",
    "EXPERIMENTS",
    "run_experiment",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_table1",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_bottleneck",
    "run_sessions",
    "run_regions",
    "RECOVERY_FIXTURES",
    "RECOVERY_SCALES",
    "RecoveryFixture",
    "RecoveryOutcome",
    "run_recovery",
    "run_recovery_suite",
    "SENSITIVITY_FIXTURES",
    "SENSITIVITY_SCALES",
    "DEFAULT_SENSITIVITY_NAMES",
    "SensitivityFixture",
    "SensitivityOutcome",
    "run_sensitivity",
    "run_sensitivity_suite",
    "summarize",
]
