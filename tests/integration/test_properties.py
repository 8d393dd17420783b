"""Cross-module property-based tests (hypothesis) on pipeline invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alpha import (
    SLOT_SCHEMES,
    SlottedCounts,
    _exact_unbiased_tensor,
    _slot_cuts,
    alpha_from_counts,
    slot_of_times,
)
from repro.core.streaming import merge_slotted_counts
from repro.core.unbiased import _voronoi_tensor, _window
from repro.stats.histogram import HistogramBins


def _uncut(sorted_times):
    """The one-row, uncut Voronoi tensor with one bin per sample: each
    sample's whole cell, in seconds."""
    n = sorted_times.size
    lo, hi = _window(sorted_times)
    return _voronoi_tensor(sorted_times, np.arange(n), np.array([lo, hi]),
                           np.zeros(1, dtype=np.intp), (1, n))[0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_voronoi_weights_partition_window(times):
    """Property: Voronoi cells partition the window exactly."""
    times = np.sort(np.asarray(times))
    lo, hi = _window(times)
    weights = _uncut(times)
    assert np.all(weights >= 0)
    assert np.isclose(weights.sum(), hi - lo)


@given(
    scheme=st.sampled_from(SLOT_SCHEMES),
    tz=st.sampled_from([0.0, 5.5, -7.0, 5.75]),
    start=st.floats(0.0, 2e9),
    span=st.floats(1.0, 4 * 86400.0),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=80),
    n_dup=st.integers(0, 20),
)
@settings(max_examples=80, deadline=None)
def test_slot_rows_sum_to_the_uncut_cells(scheme, tz, start, span, fractions, n_dup):
    """Property: cutting the cells at slot boundaries only splits them.

    With one action in every stretch between slot boundaries, no query is
    rejected, so the slot-clipped tensor's rows add up to the uncut
    one-row tensor — duplicate timestamps included.
    """
    fractions = np.asarray([0.0, 1.0] + fractions)
    times = start + span * np.concatenate((fractions, fractions[:n_dup]))
    lo, hi = float(times.min()), float(times.max())
    bounds = np.concatenate(([lo], _slot_cuts(lo, hi, tz), [hi]))
    times = np.sort(np.concatenate((times, 0.5 * (bounds[1:] + bounds[:-1]))))
    slot_ids = np.unique(slot_of_times(times, scheme, tz))
    clipped, _ = _exact_unbiased_tensor(times, np.arange(times.size), slot_ids,
                                        times.size, scheme, tz)
    np.testing.assert_allclose(clipped.sum(axis=0), _uncut(times), rtol=1e-12, atol=0.0)


@given(
    counts_a=st.lists(st.integers(min_value=0, max_value=50),
                      min_size=8, max_size=8),
    counts_b=st.lists(st.integers(min_value=0, max_value=50),
                      min_size=8, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_merge_counts_additive_and_commutative(counts_a, counts_b):
    """Property: merged biased counts are the sum, in any order."""
    bins = HistogramBins(0.0, 80.0, 10.0)
    rng = np.random.default_rng(0)

    def make(raw):
        c = np.asarray(raw, dtype=float).reshape(2, 4)
        padded = np.zeros((2, 8))
        padded[:, :4] = c
        f = rng.dirichlet(np.ones(8), size=2)
        return SlottedCounts(
            scheme="hour-of-day",
            slot_ids=np.array([3, 15]),
            biased_counts=padded,
            time_fractions=f,
            bins=bins,
            slot_seconds=np.array([3600.0, 3600.0]),
        )

    a, b = make(counts_a), make(counts_b)
    ab = merge_slotted_counts([a, b])
    ba = merge_slotted_counts([b, a])
    assert np.allclose(ab.biased_counts, a.biased_counts + b.biased_counts)
    assert np.allclose(ab.biased_counts, ba.biased_counts)
    assert np.allclose(ab.time_fractions, ba.time_fractions)


@given(
    scale=st.floats(min_value=0.1, max_value=50.0),
    night_activity=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_alpha_reference_is_always_one_and_scaling(scale, night_activity):
    """Property: α of the reference slot is 1; other slots scale with
    their activity regardless of overall count magnitude."""
    bins = HistogramBins(0.0, 40.0, 10.0)
    base = np.array([40.0, 30.0, 20.0, 10.0])
    counts = SlottedCounts(
        scheme="hour-of-day",
        slot_ids=np.array([3, 13]),
        biased_counts=np.stack([base * night_activity * scale, base * scale]),
        time_fractions=np.stack([base / base.sum()] * 2),
        bins=bins,
    )
    alpha = alpha_from_counts(counts, reference_slot=13, min_bin_count=0.0)
    ref_row = int(np.flatnonzero(counts.slot_ids == 13)[0])
    night_row = 1 - ref_row
    assert alpha.alpha_by_slot[ref_row] == 1.0
    assert np.isclose(alpha.alpha_by_slot[night_row], night_activity, rtol=1e-6)


@given(
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_nlp_invariant_to_uniform_count_scaling(shift):
    """Property: multiplying all biased counts by a constant leaves the
    normalized curve unchanged (it is a *normalized* preference)."""
    from repro.core.preference import PreferenceComputer
    from repro.stats.histogram import Histogram1D

    bins = HistogramBins(0.0, 600.0, 100.0)
    factor = float(np.exp(shift))
    base = np.array([1200.0, 1100, 1000, 900, 800, 700])
    computer = PreferenceComputer(smoothing_window=3, smoothing_degree=1,
                                  reference_ms=250.0, min_unbiased_count=10)

    def curve(scaled):
        biased = Histogram1D(bins)
        biased.add_counts(base * scaled)
        unbiased = Histogram1D(bins)
        unbiased.add_counts(np.full(6, 1000.0))
        return computer.compute(biased, unbiased).nlp

    a, b = curve(1.0), curve(factor)
    valid = ~np.isnan(a)
    assert np.allclose(a[valid], b[valid], atol=1e-9)
