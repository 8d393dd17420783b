"""The time-based activity factor α (paper Section 2.4.1).

Latency and user activity are both strong functions of the hour: busy hours
have more users *and* more congestion. Pooling naively therefore confounds
"users avoid high latency" with "users are asleep when latency is low". The
paper's fix:

1. Discretize time into slots (1-hour slots; we pool by hour-of-day) and
   latency into 10 ms bins.
2. For each slot ``T`` and bin ``L``: let ``c[T, L]`` be the action count
   and ``f[T, L]`` the fraction of slot time at that latency, estimated
   from the slot's unbiased distribution ``U_T``. ``U_T`` comes from the
   one Voronoi kernel of :mod:`repro.core.unbiased`, with the window cut
   at every slot boundary and one row per slot.
3. The temporal action rate is ``c[T, L] / f[T, L]``; relative to a
   reference slot ``r``, ``α[T, L] = (c[T,L]/f[T,L]) / (c[r,L]/f[r,L])``.
4. ``α[T]`` is the average of ``α[T, L]`` over latency bins (the paper
   finds it flat across bins — our Figure 8 bench checks that).
5. Counts are divided by ``α[T]`` and pooled across slots; ``U`` pools
   directly because all slots cover equal time.

Different reference slots give slightly different results on noisy data, so
the pipeline averages over several references (Section 2.4.1, last note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.core.unbiased import _voronoi_tensor, _window
from repro.errors import ConfigError, EmptyDataError, InsufficientDataError
from repro.runtime.supervisor import check_deadline
from repro.stats.histogram import Histogram1D, HistogramBins
from repro.telemetry.log_store import LogStore
from repro.telemetry import timeutil
from repro.types import DayPeriod, ALL_DAY_PERIODS

#: Supported time-slot schemes. ``hour-of-week`` separates weekday and
#: weekend hours (168 slots), for services with weekly seasonality; the
#: paper's two-month OWA window certainly had one.
SLOT_SCHEMES = ("hour-of-day", "hour-of-week", "period", "absolute-hour")

_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

#: Period index for each integer hour of day. Period boundaries all fall on
#: whole hours, so looking up ``floor(hour)`` is exact for any float hour.
_PERIOD_OF_HOUR = np.array(
    [
        {p: i for i, p in enumerate(ALL_DAY_PERIODS)}[DayPeriod.of_hour(float(h))]
        for h in range(24)
    ],
    dtype=np.int64,
)


def slot_of_times(
    times: np.ndarray,
    scheme: str,
    tz_offset_hours: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Map timestamps to integer slot ids under the chosen scheme."""
    if scheme == "hour-of-day":
        return timeutil.hour_slot(times, tz_offset_hours)
    if scheme == "hour-of-week":
        day = timeutil.day_index(times, tz_offset_hours) % 7
        hour = timeutil.hour_slot(times, tz_offset_hours)
        return day * 24 + hour
    if scheme == "period":
        hours = timeutil.hour_slot(times, tz_offset_hours)
        return _PERIOD_OF_HOUR[np.clip(hours, 0, 23)]
    if scheme == "absolute-hour":
        return timeutil.absolute_hour_slot(times)
    raise ConfigError(f"unknown slot scheme {scheme!r}; pick one of {SLOT_SCHEMES}")


def slot_labels(scheme: str, slot_ids: Sequence[int]) -> List[str]:
    """Human-readable labels for slot ids."""
    if scheme == "hour-of-day":
        return [f"{s:02d}:00" for s in slot_ids]
    if scheme == "hour-of-week":
        return [f"{_DAY_NAMES[s // 24]} {s % 24:02d}:00" for s in slot_ids]
    if scheme == "period":
        return [ALL_DAY_PERIODS[s].value for s in slot_ids]
    if scheme == "absolute-hour":
        return [f"hour+{s}" for s in slot_ids]
    raise ConfigError(f"unknown slot scheme {scheme!r}")


@dataclass
class AlphaEstimate:
    """Per-slot activity factors and their per-bin decomposition.

    A stacked estimate (several references) carries a leading reference
    axis; its methods read one-reference estimates only.
    """

    scheme: str
    slot_ids: np.ndarray            # distinct slot ids, sorted
    reference_slot: Union[int, List[int]]  # a list for a stack of references
    alpha_by_slot: np.ndarray       # one α per slot id; (R, n_slots) for a stack
    alpha_matrix: np.ndarray        # (n_slots, n_bins): α[T, L]; NaN where undefined
                                    # (R, n_slots, n_bins) for a stack
    biased_counts: np.ndarray       # (n_slots, n_bins): c[T, L]
    time_fractions: np.ndarray      # (n_slots, n_bins): f[T, L]
    bins: HistogramBins

    def alpha_of(self, slot_id: int) -> float:
        idx = np.flatnonzero(self.slot_ids == slot_id)
        if idx.size == 0:
            raise InsufficientDataError(f"slot {slot_id} not present in the estimate")
        return float(self.alpha_by_slot[idx[0]])

    def labels(self) -> List[str]:
        return slot_labels(self.scheme, [int(s) for s in self.slot_ids])

    def flatness(self) -> float:
        """Mean over slots of the coefficient of variation of α across bins.

        The paper's Figure 8 argues α is flat across the latency range; a
        small value here (≪ 1) confirms that averaging over bins is sound.
        """
        cvs = []
        for row in self.alpha_matrix:
            vals = row[~np.isnan(row)]
            if vals.size >= 2 and vals.mean() > 0:
                cvs.append(vals.std() / vals.mean())
        if not cvs:
            raise InsufficientDataError("no slot has enough bins to assess flatness")
        return float(np.mean(cvs))


@dataclass
class SlottedCounts:
    """The expensive intermediate: per-slot counts and time fractions.

    Computing these once and reusing them across several reference slots is
    what makes the paper's multi-reference averaging cheap. ``slot_seconds``
    records the exact seconds of ``[first, last]`` sample time in each
    slot, which is what makes chunk-level tables mergeable (see
    :mod:`repro.core.streaming`).
    """

    scheme: str
    slot_ids: np.ndarray
    biased_counts: np.ndarray     # c[T, L]
    time_fractions: np.ndarray    # f[T, L]
    bins: HistogramBins
    slot_seconds: Optional[np.ndarray] = None

    def busiest_slots(self, k: int = 1) -> List[int]:
        """The ``k`` slots with the most actions, busiest first."""
        order = np.argsort(-self.biased_counts.sum(axis=1), kind="mergesort")
        return [int(self.slot_ids[i]) for i in order[:k]]


def _rows_in_slots(slot_ids: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Position of each slot id in sorted ``slot_ids``; -1 where absent."""
    pos = np.minimum(np.searchsorted(slot_ids, slots), slot_ids.size - 1)
    return np.where(slot_ids[pos] == slots, pos, -1)


def _slot_cuts(lo: float, hi: float, tz: float) -> np.ndarray:
    """Every whole hour of local (``tz``) and UTC time strictly inside ``(lo, hi)``.

    Every slot scheme changes slot only on one of these instants, so the
    slot is constant between two consecutive cuts.
    """
    cuts = []
    for shift in (tz * timeutil.SECONDS_PER_HOUR, 0.0):
        first = np.floor((lo + shift) / timeutil.SECONDS_PER_HOUR) + 1.0
        last = np.ceil((hi + shift) / timeutil.SECONDS_PER_HOUR) - 1.0
        cuts.append(np.arange(first, last + 1.0) * timeutil.SECONDS_PER_HOUR - shift)
    cuts = np.union1d(*cuts)
    return cuts[(cuts > lo) & (cuts < hi)]


def _exact_unbiased_tensor(
    sorted_times: np.ndarray,
    sample_bin_idx: np.ndarray,
    slot_ids: np.ndarray,
    n_bins: int,
    scheme: str,
    tz: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (n_slots, n_bins) expectation of the paper's unbiased draw, and
    the seconds of ``[first, last]`` sample time in each slot.

    A query lands in the slot of the query time under the slice's median
    timezone ``tz``, so the window is cut at every slot boundary and each
    stretch between cuts goes to its slot's row of the one Voronoi kernel
    (:func:`repro.core.unbiased._voronoi_tensor`). Stretches in slots
    without actions are dropped, as the draw rejects those queries.

    A slot's seconds add up its stretches: they sum to ``last − first``
    when every stretch's slot holds an action.
    """
    lo, hi = _window(sorted_times)
    bounds = np.concatenate(([lo], _slot_cuts(lo, hi, tz), [hi]))
    rows = _rows_in_slots(
        slot_ids, slot_of_times(0.5 * (bounds[1:] + bounds[:-1]), scheme, tz))
    # A window padded round one instant covers no sample time.
    stretch_s = np.diff(np.minimum(bounds, sorted_times[-1]))
    member = rows >= 0
    seconds = np.bincount(rows[member], weights=stretch_s[member],
                          minlength=slot_ids.size)
    u = _voronoi_tensor(sorted_times, sample_bin_idx, bounds, rows,
                        (slot_ids.size, n_bins))
    return u, seconds


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a non-empty integer array, by sorting.

    NumPy 2's ``np.unique`` takes a hash-table path for integers that is
    several times slower than a sort on many rows with few distinct values.
    """
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def slotted_counts(
    logs: LogStore,
    bins: HistogramBins,
    scheme: str = "hour-of-day",
) -> SlottedCounts:
    """Compute per-slot biased counts c[T, L] and time fractions f[T, L].

    ``f`` is exact: the infinite-draw limit of the paper's random-time /
    nearest-sample procedure, computed from slot-clipped Voronoi cells
    (:func:`_exact_unbiased_tensor`), with no sampling noise and no seed.
    """
    check_deadline("slotted_counts")
    if logs.is_empty:
        raise EmptyDataError("cannot slot empty logs")

    action_slots = slot_of_times(logs.times, scheme, logs.tz_offsets)
    slot_ids = _distinct(action_slots)
    n_slots = slot_ids.size

    # c[T, L] — biased counts per slot, one bincount pass over all actions
    # on the fused (slot row, bin) index (every action's slot is in
    # slot_ids by construction).
    with obs.span("slotted_counts.biased", n_slots=n_slots):
        bin_idx = bins.index_of(logs.latencies_ms)
        in_grid = bin_idx >= 0
        flat = (np.searchsorted(slot_ids, action_slots)[in_grid] * bins.count
                + bin_idx[in_grid])
        c = np.bincount(flat, minlength=n_slots * bins.count).astype(float)
        c = c.reshape(n_slots, bins.count)

    # f[T, L] — time fraction per slot at each latency. Queries are slotted
    # under the slice's median timezone; the slot seconds they cover are
    # the merge weight recorded on the result.
    tz = float(np.median(logs.tz_offsets))
    with obs.span("slotted_counts.unbiased"):
        order = np.argsort(logs.times, kind="mergesort")
        u, seconds = _exact_unbiased_tensor(
            logs.times[order], bin_idx[order], slot_ids, bins.count, scheme, tz)
    slot_totals = u.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(slot_totals > 0, u / slot_totals, 0.0)

    return SlottedCounts(
        scheme=scheme, slot_ids=slot_ids, biased_counts=c, time_fractions=f,
        bins=bins, slot_seconds=seconds,
    )


def alpha_from_counts(
    counts: SlottedCounts,
    reference_slot: Union[int, Sequence[int], None] = None,
    min_bin_count: float = 5.0,
    min_time_fraction: float = 1e-6,
    bin_average: str = "simple",
) -> AlphaEstimate:
    """Derive α per slot from precomputed :class:`SlottedCounts`.

    ``reference_slot`` defaults to the busiest slot (most actions), which
    the paper's day-as-reference example suggests. ``bin_average`` is
    ``"simple"`` (the paper's plain mean over latency bins) or
    ``"weighted"`` (weights bins by their reference-slot counts — less
    noise on sparse data).

    A sequence of R reference slots gives a stacked estimate: one row per
    reference, with ``alpha_matrix`` of shape (R, n_slots, n_bins) and
    ``alpha_by_slot`` of shape (R, n_slots). The rate ``c / f`` and its
    validity mask are computed once and every reference is a broadcast
    division of them; one reference is the one-row case.
    """
    check_deadline("alpha_from_counts")
    if bin_average not in ("simple", "weighted"):
        raise ConfigError(f"bin_average must be 'simple' or 'weighted', got {bin_average!r}")
    slot_ids = counts.slot_ids
    n_slots = slot_ids.size
    slot_index = {int(s): i for i, s in enumerate(slot_ids)}
    c = counts.biased_counts
    f = counts.time_fractions
    bins = counts.bins

    if reference_slot is None:
        reference_slot = counts.busiest_slots(1)[0]
    stacked = not np.isscalar(reference_slot)
    references = [int(r) for r in (reference_slot if stacked else [reference_slot])]
    for reference in references:
        if reference not in slot_index:
            raise ConfigError(f"reference slot {reference} has no data")
    ref_rows = np.array([slot_index[r] for r in references], dtype=np.int64)
    reference_slot = references if stacked else references[0]

    with obs.span("alpha", n_slots=n_slots, reference=reference_slot):
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = np.where(f > min_time_fraction, c / f, np.nan)
        usable = ~np.isnan(rate) & (c >= min_bin_count)
        # α[R, T, L]: bin L of slot T is defined where both T and the
        # reference have a usable rate there.
        valid = usable[ref_rows][:, None, :] & usable[None, :, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha_matrix = np.where(valid, rate / rate[ref_rows][:, None, :], np.nan)

        # α[T] averages the defined bins of row T: a masked row sum over
        # the defined count (or, for "weighted", over the reference slot's
        # counts in those bins). Summing whole rows orders the additions
        # differently from a sum over the defined bins alone, so α[T] can
        # differ from that in the last bits (relative error ~1e-16). A row
        # with no defined bin comes out 0/0 = NaN.
        ok = ~np.isnan(alpha_matrix)
        if bin_average == "simple":
            weights = ok.astype(float)
        else:
            weights = np.where(ok, c[ref_rows][:, None, :], 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha_by_slot = (np.where(ok, alpha_matrix * weights, 0.0).sum(axis=-1)
                             / weights.sum(axis=-1))
        # Slots with no overlapping valid bins: fall back to total-count ratio,
        # which is exact when α is truly flat across bins.
        totals = c.sum(axis=1)
        ref_totals = totals[ref_rows][:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha_by_slot = np.where(np.isnan(alpha_by_slot) & (ref_totals > 0),
                                     totals / ref_totals, alpha_by_slot)
        alpha_by_slot[np.arange(ref_rows.size), ref_rows] = 1.0

    if obs.current().enabled:
        from repro.obs import probes

        for row, reference in enumerate(references):
            probes.emit(probes.probe_alpha_dispersion(
                alpha_matrix[row], alpha_by_slot[row], reference), row=row)

    return AlphaEstimate(
        scheme=counts.scheme,
        slot_ids=slot_ids,
        reference_slot=reference_slot,
        alpha_by_slot=alpha_by_slot if stacked else alpha_by_slot[0],
        alpha_matrix=alpha_matrix if stacked else alpha_matrix[0],
        biased_counts=c,
        time_fractions=f,
        bins=bins,
    )


def estimate_alpha(
    logs: LogStore,
    bins: HistogramBins,
    scheme: str = "hour-of-day",
    reference_slot: Optional[int] = None,
    min_bin_count: float = 5.0,
    min_time_fraction: float = 1e-6,
    bin_average: str = "simple",
) -> AlphaEstimate:
    """One-shot α estimation: :func:`slotted_counts` + :func:`alpha_from_counts`."""
    counts = slotted_counts(logs, bins, scheme=scheme)
    return alpha_from_counts(
        counts,
        reference_slot=reference_slot,
        min_bin_count=min_bin_count,
        min_time_fraction=min_time_fraction,
        bin_average=bin_average,
    )


def _inverse_alpha(alpha_by_slot: np.ndarray) -> np.ndarray:
    """Per-slot weight ``1/α`` (0 where α is non-positive or undefined)."""
    out = np.zeros(alpha_by_slot.shape, dtype=float)
    ok = np.isfinite(alpha_by_slot) & (alpha_by_slot > 0)
    out[ok] = 1.0 / alpha_by_slot[ok]
    return out


def _pooled_unbiased(alpha: AlphaEstimate) -> Histogram1D:
    """U pools each slot's fraction profile once (equal time per slot); the
    mass is arbitrary because U is density-normalized later."""
    unbiased = Histogram1D(alpha.bins)
    unbiased.add_counts(alpha.time_fractions.sum(axis=0) * 10_000.0)
    return unbiased


def corrected_histograms_from_counts(
    counts: SlottedCounts,
    alpha: AlphaEstimate,
) -> Tuple[Union[Histogram1D, List[Histogram1D]], Histogram1D]:
    """(B, U) with α-normalized counts, derived purely from the count tensor.

    ``B[L] = Σ_T c[T, L] / α[T]`` — an ``O(n_slots × n_bins)`` contraction
    of the :class:`SlottedCounts` tensor, with no access to raw actions.
    This is what lets :meth:`repro.core.pipeline.AutoSens.preference_curve`
    evaluate *any* reference slot without rescanning the telemetry: the
    tensor is computed once and every reference is a cheap reweighting.

    A stacked ``alpha`` (several references) gives every reference's B from
    one product ``B[R, L] = (1/α)[R, T] @ c[T, L]``, returned as a list of
    histograms, one per reference. U does not depend on the reference, so
    there is one U either way.
    """
    if counts.bins != alpha.bins:
        raise ConfigError("counts and alpha must share one bin grid")
    if not np.array_equal(counts.slot_ids, alpha.slot_ids):
        raise ConfigError("counts and alpha must cover the same slots")
    with obs.span("corrected_histograms", reference=alpha.reference_slot):
        inv = _inverse_alpha(np.atleast_2d(alpha.alpha_by_slot))
        biased = []
        for row in inv @ counts.biased_counts:  # Σ_T c[T, :] / α[T], per reference
            histogram = Histogram1D(counts.bins)
            histogram.add_counts(row)
            biased.append(histogram)
    stacked = np.ndim(alpha.alpha_by_slot) == 2
    return (biased if stacked else biased[0]), _pooled_unbiased(alpha)


# --- The paper's Table 1 worked example -----------------------------------


@dataclass(frozen=True)
class WorkedExample:
    """All the intermediate numbers of the paper's Table 1."""

    alpha_per_bin: Dict[str, float]
    alpha: float
    normalized_counts: Dict[str, float]
    naive_rates: Dict[str, float]
    corrected_rates: Dict[str, float]


def worked_example(
    day_counts: Tuple[float, float] = (90.0, 140.0),
    day_fractions: Tuple[float, float] = (0.30, 0.70),
    night_counts: Tuple[float, float] = (26.0, 4.0),
    night_fractions: Tuple[float, float] = (0.80, 0.20),
) -> WorkedExample:
    """Reproduce the paper's Table 1 normalization example.

    Two slots (day = reference, night) and two latency bins (low, high).
    Returns every intermediate quantity so tests can check them against
    the numbers printed in the paper.
    """
    c_day = np.asarray(day_counts, dtype=float)
    f_day = np.asarray(day_fractions, dtype=float)
    c_night = np.asarray(night_counts, dtype=float)
    f_night = np.asarray(night_fractions, dtype=float)
    if np.any(f_day <= 0) or np.any(f_night <= 0):
        raise ConfigError("time fractions must be positive")

    rate_day = c_day / f_day
    rate_night = c_night / f_night
    alpha_bins = rate_night / rate_day
    alpha = float(alpha_bins.mean())
    normalized_night = c_night / alpha

    # Pooled activity levels per latency bin; slot lengths are equal so the
    # time at each latency is proportional to the sum of fractions.
    time_low = f_day[0] + f_night[0]
    time_high = f_day[1] + f_night[1]
    naive_low = (c_day[0] + c_night[0]) / (time_low * 100.0)
    naive_high = (c_day[1] + c_night[1]) / (time_high * 100.0)
    corrected_low = (c_day[0] + normalized_night[0]) / (time_low * 100.0)
    corrected_high = (c_day[1] + normalized_night[1]) / (time_high * 100.0)

    return WorkedExample(
        alpha_per_bin={"low": float(alpha_bins[0]), "high": float(alpha_bins[1])},
        alpha=alpha,
        normalized_counts={"low": float(normalized_night[0]), "high": float(normalized_night[1])},
        naive_rates={"low": float(naive_low), "high": float(naive_high)},
        corrected_rates={"low": float(corrected_low), "high": float(corrected_high)},
    )
