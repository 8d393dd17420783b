"""From histograms to the normalized latency preference (paper Section 2.3).

Given the biased distribution ``B`` and unbiased distribution ``U`` on a
shared 10 ms grid:

1. latency preference = per-bin density ratio ``B/U`` — undefined (NaN)
   where ``U`` has too little mass for a stable ratio;
2. smooth with a Savitzky–Golay filter (window 101 bins, degree 3);
3. normalize so the smoothed value at the reference latency (300 ms) is 1.

A normalized preference of ``x`` at latency ``L`` means users are
``(1 - x) * 100 %`` less active at ``L`` than at the reference, all
confounders being equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.errors import ConfigError, InsufficientDataError
from repro.runtime.supervisor import check_deadline
from repro.stats.histogram import Histogram1D
from repro.stats.savgol import SavitzkyGolay
from repro.core.result import PreferenceResult

#: Paper defaults.
DEFAULT_SMOOTHING_WINDOW = 101
DEFAULT_SMOOTHING_DEGREE = 3
DEFAULT_REFERENCE_MS = 300.0
DEFAULT_MIN_UNBIASED_COUNT = 40.0


@dataclass(frozen=True)
class PreferenceComputer:
    """Configured B/U → NLP transform."""

    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
    smoothing_degree: int = DEFAULT_SMOOTHING_DEGREE
    reference_ms: float = DEFAULT_REFERENCE_MS
    min_unbiased_count: float = DEFAULT_MIN_UNBIASED_COUNT

    def __post_init__(self) -> None:
        if self.smoothing_window % 2 != 1 or self.smoothing_window < 3:
            raise ConfigError(
                f"smoothing_window must be odd and >= 3, got {self.smoothing_window}"
            )
        if self.reference_ms <= 0:
            raise ConfigError(f"reference_ms must be positive, got {self.reference_ms}")

    def compute(
        self,
        biased: Histogram1D,
        unbiased: Histogram1D,
        slice_description: str = "",
        n_actions: int | None = None,
    ) -> PreferenceResult:
        """Produce the full :class:`PreferenceResult` from B and U."""
        check_deadline("preference.compute")
        if biased.bins != unbiased.bins:
            raise ConfigError("B and U must share one bin grid")
        bins = biased.bins
        ref_idx = bins.index_of(np.asarray([self.reference_ms]))[0]
        if ref_idx < 0:
            raise ConfigError(
                f"reference latency {self.reference_ms} ms is outside the bin grid"
            )

        b_counts = biased.counts
        u_counts = unbiased.counts
        raw = np.full(bins.count, np.nan)
        stable = u_counts >= self.min_unbiased_count
        if obs.current().enabled:
            # Estimator-health probes run on the pre-ratio intermediates so
            # a run that raises below still carries its fail findings.
            from repro.obs import probes

            probes.emit(probes.probe_bin_occupancy(
                b_counts, u_counts, self.min_unbiased_count, slice_description))
            probes.emit(probes.probe_u_coverage(
                b_counts, u_counts, self.min_unbiased_count, slice_description))
            probes.emit(probes.probe_smoothing_edges(
                stable, self.smoothing_window, slice_description))
        if not np.any(stable):
            raise InsufficientDataError(
                "no latency bin has enough unbiased samples "
                f"(min_unbiased_count={self.min_unbiased_count})"
            )
        with obs.span("preference_compute", slice=slice_description):
            b_pdf = biased.pdf()
            u_pdf = unbiased.pdf()
            raw[stable] = b_pdf[stable] / u_pdf[stable]

            smoother = SavitzkyGolay(self.smoothing_window, self.smoothing_degree)
            smoothed = smoother(raw)
            # Smoothing fills NaN gaps between stable bins; keep the curve
            # only where the ratio itself was defined.
            smoothed[~stable] = np.nan

            ref_value = smoothed[ref_idx]
            if np.isnan(ref_value) or ref_value <= 0:
                # Fall back to the nearest valid bin to the reference.
                valid_idx = np.flatnonzero(~np.isnan(smoothed) & (smoothed > 0))
                if valid_idx.size == 0:
                    raise InsufficientDataError(
                        "smoothed preference has no valid bins")
                nearest = valid_idx[np.argmin(np.abs(valid_idx - ref_idx))]
                ref_value = smoothed[nearest]
            nlp = smoothed / ref_value

        return PreferenceResult(
            bins=bins,
            biased_counts=b_counts,
            unbiased_counts=u_counts,
            raw_ratio=raw,
            smoothed_ratio=smoothed,
            nlp=nlp,
            reference_ms=self.reference_ms,
            slice_description=slice_description,
            n_actions=int(biased.total if n_actions is None else n_actions),
        )


def _nan_column_mean(stack: np.ndarray) -> np.ndarray:
    """Column means ignoring NaNs; all-NaN columns stay NaN, silently."""
    mask = np.isnan(stack)
    counts = (~mask).sum(axis=0)
    sums = np.where(mask, 0.0, stack).sum(axis=0)
    out = np.full(stack.shape[1], np.nan)
    ok = counts > 0
    out[ok] = sums[ok] / counts[ok]
    return out


def average_results(results: list, slice_description: str = "") -> PreferenceResult:
    """Pointwise NaN-aware average of NLP curves from multiple references.

    The paper: "we pick multiple references in turn and then average the
    results." All inputs must share one bin grid and reference latency.
    """
    if not results:
        raise InsufficientDataError("no results to average")
    first = results[0]
    for other in results[1:]:
        if other.bins != first.bins:
            raise ConfigError("results must share one bin grid")
    nlp = _nan_column_mean(np.stack([r.nlp for r in results]))
    raw = _nan_column_mean(np.stack([r.raw_ratio for r in results]))
    smoothed = _nan_column_mean(np.stack([r.smoothed_ratio for r in results]))
    return PreferenceResult(
        bins=first.bins,
        biased_counts=np.mean([r.biased_counts for r in results], axis=0),
        unbiased_counts=np.mean([r.unbiased_counts for r in results], axis=0),
        raw_ratio=raw,
        smoothed_ratio=smoothed,
        nlp=nlp,
        reference_ms=first.reference_ms,
        slice_description=slice_description or first.slice_description,
        n_actions=first.n_actions,
        metadata={"averaged_over": len(results)},
    )
