"""Statistics substrate for the AutoSens reproduction.

Everything in this package is generic numerical machinery with no knowledge
of telemetry or the AutoSens methodology:

- :mod:`repro.stats.rng` — reproducible random-generator management
- :mod:`repro.stats.histogram` — fixed-width binned histograms / PDFs
- :mod:`repro.stats.savgol` — from-scratch Savitzky–Golay smoothing
- :mod:`repro.stats.msd` — mean-successive-difference (von Neumann) statistics
- :mod:`repro.stats.correlation` — Pearson / Spearman correlation
- :mod:`repro.stats.sampling` — nearest-in-time resampling primitives
- :mod:`repro.stats.ou_process` — Ornstein–Uhlenbeck / AR(1) processes
- :mod:`repro.stats.interpolate` — monotone (PCHIP) interpolation
"""

from repro.stats.correlation import pearson, spearman
from repro.stats.histogram import Histogram1D, HistogramBins, latency_bins
from repro.stats.interpolate import MonotoneCubicInterpolator
from repro.stats.msd import (
    LocalityComparison,
    compare_locality,
    mean_absolute_difference,
    mean_successive_difference,
    msd_mad_ratio,
)
from repro.stats.ou_process import OrnsteinUhlenbeck, ar1_series
from repro.stats.rng import RngFactory, spawn_rng
from repro.stats.sampling import nearest_time_sample, random_times, sorted_by_time
from repro.stats.savgol import SavitzkyGolay, savgol_smooth

__all__ = [
    "latency_bins",
    "LocalityComparison",
    "compare_locality",
    "sorted_by_time",
    "pearson",
    "spearman",
    "Histogram1D",
    "HistogramBins",
    "MonotoneCubicInterpolator",
    "mean_absolute_difference",
    "mean_successive_difference",
    "msd_mad_ratio",
    "OrnsteinUhlenbeck",
    "ar1_series",
    "RngFactory",
    "spawn_rng",
    "nearest_time_sample",
    "random_times",
    "SavitzkyGolay",
    "savgol_smooth",
]
