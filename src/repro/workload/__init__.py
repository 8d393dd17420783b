"""Synthetic workload: the OWA-telemetry substitute with known ground truth.

The paper's data is two months of proprietary Microsoft OWA logs. This
package generates statistically analogous telemetry whose latency-preference
ground truth is *known*, so the reproduction can validate that AutoSens
recovers it (see DESIGN.md Section 2 for the substitution argument).
"""

from repro.workload.actions import (
    ActionMix,
    ActionSpec,
    owa_action_mix,
    websearch_action_mix,
)
from repro.workload.activity_model import ActivityCurve, ActivityModel
from repro.workload.degradations import (
    DEGRADATION_BUILDERS,
    DegradationPlan,
    DegradationSpec,
    DiurnalThinning,
    HeavyUserSkew,
    InformativeMissingness,
)
from repro.workload.generator import (
    GeneratorConfig,
    TelemetryGenerator,
    TelemetryResult,
)
from repro.workload.incidents import (
    DEFAULT_INCIDENT_SPECS,
    AutoscaleStep,
    IncidentPlan,
    IncidentProfile,
    IncidentSpec,
    IncidentWindow,
    LoadSpike,
    RegionalDegradation,
    RetryStorm,
    SlowDependency,
)
from repro.workload.latency_model import (
    DiurnalCurve,
    LatencyGrid,
    LatencyModel,
    LatencyModelConfig,
)
from repro.workload.queue_model import (
    QueueModel,
    QueueModelConfig,
    QueueSimResult,
    ServiceTimeConfig,
)
from repro.workload.population import (
    Population,
    PopulationConfig,
    synthesize_population,
)
from repro.workload.preference import (
    CONSUMER_ANCHORS,
    PAPER_ANCHORS,
    PERIOD_EXPONENTS,
    QUARTILE_EXPONENTS,
    REFERENCE_LATENCY_MS,
    GroundTruth,
    PreferenceCurve,
    paper_curve,
)
from repro.workload.trace_replay import (
    TraceReplayGenerator,
    generate_from_trace,
    read_level_trace,
    write_level_trace,
)
from repro.workload.scenarios import (
    SCENARIOS,
    Scenario,
    conditioning_scenario,
    flat_preference_scenario,
    global_scenario,
    owa_scenario,
    queue_scenario,
    timeofday_scenario,
    two_month_scenario,
    websearch_scenario,
    weekly_scenario,
)

__all__ = [
    "ActionMix",
    "ActionSpec",
    "owa_action_mix",
    "websearch_action_mix",
    "ActivityCurve",
    "ActivityModel",
    "GeneratorConfig",
    "TelemetryGenerator",
    "TelemetryResult",
    "DiurnalCurve",
    "LatencyGrid",
    "LatencyModel",
    "LatencyModelConfig",
    "QueueModel",
    "QueueModelConfig",
    "QueueSimResult",
    "ServiceTimeConfig",
    "DegradationSpec",
    "DegradationPlan",
    "DiurnalThinning",
    "InformativeMissingness",
    "HeavyUserSkew",
    "DEGRADATION_BUILDERS",
    "DEFAULT_INCIDENT_SPECS",
    "AutoscaleStep",
    "IncidentPlan",
    "IncidentProfile",
    "IncidentSpec",
    "IncidentWindow",
    "LoadSpike",
    "RegionalDegradation",
    "RetryStorm",
    "SlowDependency",
    "Population",
    "PopulationConfig",
    "synthesize_population",
    "GroundTruth",
    "PreferenceCurve",
    "paper_curve",
    "PAPER_ANCHORS",
    "CONSUMER_ANCHORS",
    "PERIOD_EXPONENTS",
    "QUARTILE_EXPONENTS",
    "REFERENCE_LATENCY_MS",
    "Scenario",
    "SCENARIOS",
    "TraceReplayGenerator",
    "generate_from_trace",
    "read_level_trace",
    "write_level_trace",
    "owa_scenario",
    "queue_scenario",
    "conditioning_scenario",
    "timeofday_scenario",
    "two_month_scenario",
    "flat_preference_scenario",
    "weekly_scenario",
    "global_scenario",
    "websearch_scenario",
]
