"""AutoSens reproduction: latency-sensitivity inference from natural experiments.

This package reproduces *AutoSens: Inferring Latency Sensitivity of User
Activity through Natural Experiments* (Thakkar, Saxena, Padmanabhan - ACM IMC
2021). It contains:

- :mod:`repro.core` - the AutoSens methodology itself (biased/unbiased
  latency distributions, time-confounder correction, normalized latency
  preference curves, locality diagnostics);
- :mod:`repro.workload` - a synthetic telemetry generator standing in for
  the paper's proprietary Microsoft OWA logs, with known ground truth;
- :mod:`repro.telemetry` - the telemetry record schema, stores and IO;
- :mod:`repro.stats` - the generic statistics substrate;
- :mod:`repro.analysis` - one driver per paper figure/table;
- :mod:`repro.viz` and :mod:`repro.cli` - terminal plots and a CLI.

Quickstart::

    from repro import AutoSens, owa_scenario

    logs = owa_scenario(seed=7).generate()
    curve = AutoSens().preference_curve(logs, action="SelectMail")
    print(curve.at(1000.0))   # normalized preference at 1 s latency
"""

from repro._version import __version__
from repro.types import ActionType, DayPeriod, UserClass

__all__ = [
    "__version__",
    "ActionType",
    "DayPeriod",
    "UserClass",
    "AutoSens",
    "AutoSensConfig",
    "owa_scenario",
]


def __getattr__(name):
    """Lazy re-exports so ``import repro`` stays cheap and cycle-free."""
    if name in ("AutoSens", "AutoSensConfig"):
        from repro.core.pipeline import AutoSens, AutoSensConfig

        return {"AutoSens": AutoSens, "AutoSensConfig": AutoSensConfig}[name]
    if name == "owa_scenario":
        from repro.workload.scenarios import owa_scenario

        return owa_scenario
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
