"""AutoSens core: the paper's methodology.

- :mod:`repro.core.biased` / :mod:`repro.core.unbiased` — the B and U
  latency distributions (Section 2.2);
- :mod:`repro.core.preference` — B/U → smoothed, normalized latency
  preference (Section 2.3);
- :mod:`repro.core.alpha` — the time-based activity factor α and the
  time-confounder correction (Section 2.4.1), plus the Table 1 worked
  example;
- :mod:`repro.core.locality` — the MSD/MAD and density diagnostics
  (Section 2.1, Figures 1-2);
- :mod:`repro.core.quartiles` — user conditioning quartiles (Section 3.4);
- :mod:`repro.core.pipeline` — the :class:`AutoSens` engine tying it all
  together;
- :mod:`repro.core.validation` — recovery checks against ground truth.
"""

from repro.core.alpha import (
    AlphaEstimate,
    SlottedCounts,
    WorkedExample,
    alpha_from_counts,
    corrected_histograms_from_counts,
    estimate_alpha,
    slot_labels,
    slot_of_times,
    slotted_counts,
    worked_example,
)
from repro.core.aggregate import curve_from_counts, load_counts, save_counts
from repro.core.biased import biased_histogram
from repro.core.compare import CurveDistance, StabilityReport, curve_distance, stability_report
from repro.core.streaming import (
    StreamingAutoSens,
    iter_chunks_by_day,
    merge_slotted_counts,
)
from repro.core.locality import (
    DensityLatencySeries,
    density_latency_series,
    locality_report,
)
from repro.core.pipeline import (
    AutoSens,
    AutoSensConfig,
    DegradePolicy,
    SubsamplePolicy,
)
from repro.core.preference import PreferenceComputer, average_results
from repro.core.preflight import PreflightReport, preflight
from repro.core.quartiles import (
    QUARTILE_NAMES,
    QuartileAssignment,
    assign_quartiles,
    quartile_slices,
)
from repro.core.result import PreferenceResult
from repro.core.uncertainty import BandedResult, nlp_confidence_band
from repro.core.whatif import (
    WhatIfReport,
    cap_ms,
    predict_activity_impact,
    scale,
    shift_ms,
)
from repro.core.unbiased import (
    UnbiasedDraw,
    draw_unbiased_samples,
    unbiased_histogram,
)
from repro.core.validation import (
    PAPER_ANCHOR_LATENCIES,
    AnchorComparison,
    RecoveryReport,
    compare_to_truth,
    monotone_ordering,
)

__all__ = [
    "AutoSens",
    "StreamingAutoSens",
    "iter_chunks_by_day",
    "merge_slotted_counts",
    "curve_from_counts",
    "save_counts",
    "load_counts",
    "BandedResult",
    "nlp_confidence_band",
    "WhatIfReport",
    "predict_activity_impact",
    "shift_ms",
    "scale",
    "cap_ms",
    "AutoSensConfig",
    "DegradePolicy",
    "SubsamplePolicy",
    "PreferenceResult",
    "PreferenceComputer",
    "PreflightReport",
    "preflight",
    "average_results",
    "biased_histogram",
    "CurveDistance",
    "StabilityReport",
    "curve_distance",
    "stability_report",
    "unbiased_histogram",
    "draw_unbiased_samples",
    "UnbiasedDraw",
    "AlphaEstimate",
    "SlottedCounts",
    "WorkedExample",
    "alpha_from_counts",
    "slotted_counts",
    "estimate_alpha",
    "corrected_histograms_from_counts",
    "worked_example",
    "slot_labels",
    "slot_of_times",
    "locality_report",
    "density_latency_series",
    "DensityLatencySeries",
    "assign_quartiles",
    "quartile_slices",
    "QuartileAssignment",
    "QUARTILE_NAMES",
    "compare_to_truth",
    "monotone_ordering",
    "RecoveryReport",
    "AnchorComparison",
    "PAPER_ANCHOR_LATENCIES",
]
