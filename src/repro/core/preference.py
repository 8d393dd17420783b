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
from typing import List, Sequence, Union

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
        biased: Union[Histogram1D, Sequence[Histogram1D]],
        unbiased: Histogram1D,
        slice_description: str = "",
        n_actions: int | None = None,
    ) -> Union[PreferenceResult, List[Union[PreferenceResult, InsufficientDataError]]]:
        """Produce the full :class:`PreferenceResult` from B and U.

        ``biased`` may also be a sequence of B histograms, one per α
        reference, that share ``unbiased``. U, its stable-bin mask and the
        smoother's normal equations depend on U alone, so the ratio stack
        is smoothed in one call; only the normalization is per row. The
        result is then a list with one entry per row: its
        :class:`PreferenceResult`, or the :class:`InsufficientDataError`
        that starved it, returned rather than raised so the caller decides
        whether to skip that reference. A shared failure (no stable bin)
        still raises. ``result.metadata["normalized_at_ms"]`` is the
        latency the curve was normalized at: ``reference_ms``, or the
        nearest valid bin's centre when the smoothed value there is NaN or
        not positive, which also records an obs degradation.
        """
        check_deadline("preference.compute")
        stacked = not isinstance(biased, Histogram1D)
        rows = list(biased) if stacked else [biased]
        bins = unbiased.bins
        if any(b.bins != bins for b in rows):
            raise ConfigError("B and U must share one bin grid")
        ref_idx = bins.index_of(np.asarray([self.reference_ms]))[0]
        if ref_idx < 0:
            raise ConfigError(
                f"reference latency {self.reference_ms} ms is outside the bin grid"
            )

        b_counts = np.stack([b.counts for b in rows])
        u_counts = unbiased.counts
        stable = u_counts >= self.min_unbiased_count
        if obs.current().enabled:
            # Estimator-health probes run on the pre-ratio intermediates so
            # a run that raises below still carries its fail findings.
            from repro.obs import probes

            for row, b_row in enumerate(b_counts):
                probes.emit(probes.probe_bin_occupancy(
                    b_row, u_counts, self.min_unbiased_count, slice_description),
                    row=row)
                probes.emit(probes.probe_u_coverage(
                    b_row, u_counts, self.min_unbiased_count, slice_description),
                    row=row)
                probes.emit(probes.probe_smoothing_edges(
                    stable, self.smoothing_window, slice_description), row=row)
        if not np.any(stable):
            raise InsufficientDataError(
                "no latency bin has enough unbiased samples "
                f"(min_unbiased_count={self.min_unbiased_count})"
            )
        out: List[Union[PreferenceResult, InsufficientDataError]] = []
        with obs.span("preference_compute", slice=slice_description):
            b_pdf = np.stack([b.pdf() for b in rows])
            u_pdf = unbiased.pdf()
            raw = np.full(b_counts.shape, np.nan)
            raw[:, stable] = b_pdf[:, stable] / u_pdf[stable]

            smoother = SavitzkyGolay(self.smoothing_window, self.smoothing_degree)
            smoothed = smoother(raw)
            # Smoothing fills NaN gaps between stable bins; keep the curve
            # only where the ratio itself was defined.
            smoothed[:, ~stable] = np.nan

            for row, b in enumerate(rows):
                curve = smoothed[row]
                at_idx, normalized_at = ref_idx, self.reference_ms
                if not curve[ref_idx] > 0:  # NaN or not positive
                    # Fall back to the nearest valid bin to the reference.
                    valid_idx = np.flatnonzero(curve > 0)
                    if valid_idx.size == 0:
                        out.append(InsufficientDataError(
                            "smoothed preference has no valid bins"))
                        continue
                    at_idx = valid_idx[np.argmin(np.abs(valid_idx - ref_idx))]
                    normalized_at = float(bins.centers[at_idx])
                    obs.record_degradation(
                        "reference_bin_fallback", slice=slice_description,
                        reference_ms=self.reference_ms,
                        normalized_at_ms=normalized_at)
                out.append(PreferenceResult(
                    bins=bins,
                    biased_counts=b_counts[row],
                    unbiased_counts=u_counts,
                    raw_ratio=raw[row],
                    smoothed_ratio=curve,
                    nlp=curve / curve[at_idx],
                    reference_ms=self.reference_ms,
                    slice_description=slice_description,
                    n_actions=int(b.total if n_actions is None else n_actions),
                    metadata={"normalized_at_ms": normalized_at},
                ))
        if stacked:
            return out
        if isinstance(out[0], InsufficientDataError):
            raise out[0]
        return out[0]


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
