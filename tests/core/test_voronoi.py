"""Tests for the exact (Voronoi-weighted) unbiased estimator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import EmptyDataError
from repro.core import AutoSens, AutoSensConfig, curve_from_counts
from repro.core.alpha import slot_of_times, slotted_counts
from repro.core.biased import biased_histogram
from repro.core.unbiased import (
    UNBIASED_MASS_PER_ACTION,
    draw_unbiased_samples,
    unbiased_histogram,
)
from repro.stats.histogram import Histogram1D, HistogramBins, latency_bins
from repro.telemetry import LogStore
from repro.workload import global_scenario, owa_scenario
from tests.core.legacy_reference import _legacy_unbiased_histogram


def _cells(times):
    """Each sample's Voronoi cell in seconds, read off ``unbiased_histogram``.

    Sample ``i`` gets latency bin ``i`` of its own, so U's bins are the
    per-sample weights; undoing the rescale to ``UNBIASED_MASS_PER_ACTION``
    per action over the ``[first, last]`` window gives seconds back.
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    logs = LogStore.from_arrays(times=times, latencies_ms=10.0 * np.arange(n) + 5.0,
                                actions=["a"] * n)
    u = unbiased_histogram(logs, HistogramBins(0.0, 10.0 * n, 10.0))
    window = max(float(np.ptp(times)), 1.0)
    assert u.total == pytest.approx(UNBIASED_MASS_PER_ACTION * n, rel=1e-12)
    return u.counts * window / (UNBIASED_MASS_PER_ACTION * n)


class TestVoronoiWeights:
    def test_uniform_spacing_equal_weights(self):
        weights = _cells(np.arange(10.0))
        # interior points get 1.0; edges get 0.5 each
        assert np.allclose(weights[1:-1], 1.0)
        assert np.allclose(weights[[0, -1]], 0.5)

    def test_weights_sum_to_window(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 100, 57)  # unsorted: the estimator sorts
        weights = _cells(times)
        assert np.isclose(weights.sum(), np.ptp(times))
        order = np.argsort(times)
        assert np.array_equal(weights[order], _cells(times[order]))

    def test_isolated_sample_gets_big_cell(self):
        weights = _cells([0.0, 1.0, 2.0, 100.0])
        assert weights[3] > 10 * weights[1]

    def test_duplicates_split_evenly(self):
        weights = _cells([0.0, 5.0, 5.0, 10.0])
        assert np.isclose(weights[1], weights[2])
        # the two duplicates together own the middle cell
        assert np.isclose(weights[1] + weights[2], 5.0)

    def test_single_sample(self):
        # One instant still gets a one-second window to query.
        assert np.allclose(_cells([3.0]), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            unbiased_histogram(LogStore.from_records([]), HistogramBins(0.0, 10.0, 10.0))

    def test_matches_monte_carlo_expectation(self):
        """Voronoi is the infinite-draw limit of the sampling estimator."""
        rng = np.random.default_rng(1)
        # dense cluster of fast samples, sparse slow samples
        fast = np.sort(rng.uniform(0, 100.0, 200))
        slow = np.sort(rng.uniform(100.0, 200.0, 20))
        times = np.concatenate([fast, slow])
        latencies = np.concatenate([np.full(200, 50.0), np.full(20, 150.0)])
        logs = LogStore.from_arrays(times=times, latencies_ms=latencies,
                                    actions=["a"] * 220)
        bins = HistogramBins(0.0, 200.0, 100.0)
        voronoi = unbiased_histogram(logs, bins)
        sampled = Histogram1D(bins)
        sampled.add(draw_unbiased_samples(logs, n_samples=200_000, rng=2)
                    .selected_latencies)
        assert np.allclose(voronoi.pmf(), sampled.pmf(), atol=0.01)


def _store(times, latencies, tz=0.0):
    times = np.asarray(times, dtype=float)
    return LogStore.from_arrays(
        times=times, latencies_ms=np.asarray(latencies, dtype=float),
        actions=["a"] * times.size, tz_offsets=np.full(times.size, tz),
    )


def _fractions(counts, slot):
    row = counts.time_fractions[int(np.flatnonzero(counts.slot_ids == slot)[0])]
    return {int(b): float(row[b]) for b in np.flatnonzero(row)}


class TestSlotClipping:
    BINS = HistogramBins(0.0, 1000.0, 100.0)

    def test_cell_straddling_an_hour_is_split(self):
        # Cells: [3000, 3500] for the 150 ms sample; [3500, 4000] for the
        # 250 ms one, which the 01:00 boundary (3600 s) cuts in two.
        counts = slotted_counts(_store([3000.0, 4000.0], [150.0, 250.0]), self.BINS)
        assert _fractions(counts, 0) == pytest.approx({1: 5 / 6, 2: 1 / 6})
        assert _fractions(counts, 1) == pytest.approx({2: 1.0})

    def test_queries_slot_by_the_median_timezone(self):
        # Two UTC+1 samples outvote one UTC sample, so the whole window
        # (00:10-00:50 UTC) is local hour 01; the UTC sample's own slot 0
        # gets no time.
        store = LogStore.from_arrays(
            times=np.array([600.0, 1800.0, 3000.0]),
            latencies_ms=np.array([150.0, 250.0, 350.0]),
            actions=["a"] * 3, tz_offsets=np.array([0.0, 1.0, 1.0]),
        )
        counts = slotted_counts(store, self.BINS)
        assert counts.slot_ids.tolist() == [0, 1]
        assert not counts.time_fractions[0].any()
        assert _fractions(counts, 1) == pytest.approx({1: 0.25, 2: 0.5, 3: 0.25})

    def test_duplicates_split_their_cell_across_slots(self):
        # Two samples at 3600 s share the cell [1800, 5400], half in each
        # hour; each takes half of every piece.
        counts = slotted_counts(
            _store([0.0, 3600.0, 3600.0, 7200.0], [150.0, 250.0, 350.0, 450.0]),
            self.BINS)
        assert _fractions(counts, 0) == pytest.approx({1: 0.5, 2: 0.25, 3: 0.25})
        assert _fractions(counts, 1) == pytest.approx({2: 0.25, 3: 0.25, 4: 0.5})

    def test_empty_slots_and_off_grid_samples_are_dropped(self):
        # Hours 01 and 02 hold no action, so the 250 ms cell keeps only its
        # 03:00 stretch; the off-grid 5000 ms sample contributes nowhere.
        counts = slotted_counts(
            _store([1800.0, 3000.0, 12600.0], [150.0, 5000.0, 250.0]), self.BINS)
        assert counts.slot_ids.tolist() == [0, 3]
        assert _fractions(counts, 0) == pytest.approx({1: 1.0})
        assert _fractions(counts, 3) == pytest.approx({2: 1.0})


#: Reference draws per action: enough that the reference tensor sits within
#: Monte Carlo noise of any bias worth detecting.
REFERENCE_DRAWS = 400


def _reference_fractions(logs, counts, draws_per_action, seed=0, chunk=2_000_000):
    """Per-slot time fractions from the paper's draw, slotted like the engine.

    Returns ``(fractions, queries_per_slot)``. Queries are slotted by the
    slice's median timezone; queries in slots without actions or selecting
    an off-grid latency are rejected.
    """
    tz = float(np.median(logs.tz_offsets))
    n_slots, n_bins = counts.time_fractions.shape
    tally = np.zeros(n_slots * n_bins)
    rng = np.random.default_rng(seed)
    remaining = draws_per_action * len(logs)
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        draw = draw_unbiased_samples(logs, n_samples=n, rng=rng)
        slots = slot_of_times(draw.query_times, counts.scheme, tz)
        rows = np.searchsorted(counts.slot_ids, slots)
        rows = np.minimum(rows, n_slots - 1)
        bins = counts.bins.index_of(draw.selected_latencies)
        keep = (counts.slot_ids[rows] == slots) & (bins >= 0)
        tally += np.bincount(rows[keep] * n_bins + bins[keep],
                             minlength=n_slots * n_bins)
    tally = tally.reshape(n_slots, n_bins)
    per_slot = tally.sum(axis=1, keepdims=True)
    return tally / np.maximum(per_slot, 1.0), per_slot


def _max_z(logs, draws_per_action):
    counts = slotted_counts(logs, latency_bins())
    observed, n = _reference_fractions(logs, counts, draws_per_action)
    exact = counts.time_fractions
    cells = (exact > 0) | (observed > 0)
    # Binomial standard error, taking the larger of the two proportions so
    # sparse cells are not judged on a vanishing variance.
    se = np.sqrt(np.maximum(exact, observed) / np.maximum(n, 1.0))
    return float(np.max(np.abs(observed - exact)[cells] / se[cells]))


class TestExactLimit:
    """slotted_counts' time fractions are the paper's draw in the limit."""

    def test_sparse_store_matches_reference_draw(self):
        logs = owa_scenario(seed=3, duration_days=7.0, n_users=20,
                            candidates_per_user_day=10.0).generate().logs
        assert _max_z(logs.successful(), REFERENCE_DRAWS) <= 5.0

    def test_pooled_global_slice_matches_reference_draw(self):
        # Three timezones pooled, so queries and samples disagree on slots.
        # 192k actions: 40 draws each already resolve a 1% cell bias.
        logs = global_scenario(seed=4).generate().logs
        assert _max_z(logs.where(action="SelectMail"), 40) <= 5.0


class TestVoronoiPipeline:
    def test_deterministic_across_seeds(self, owa_logs):
        a = AutoSens(AutoSensConfig(seed=1)).preference_curve(owa_logs, action="SelectMail")
        b = AutoSens(AutoSensConfig(seed=99)).preference_curve(owa_logs, action="SelectMail")
        assert np.array_equal(a.nlp, b.nlp, equal_nan=True)

    def test_agrees_with_sampling(self, owa_logs):
        """The curve from the paper's sampled U sits within noise of the exact one."""
        config = AutoSensConfig()
        sliced = owa_logs.where(action="SelectMail")
        exact = slotted_counts(sliced, config.bins())
        sampled, _ = _reference_fractions(sliced, exact, 3, seed=1)
        curves = [
            curve_from_counts(replace(exact, time_fractions=f), config)
            for f in (exact.time_fractions, sampled)
        ]
        for probe in (500.0, 900.0):
            assert abs(float(curves[0].at(probe)) - float(curves[1].at(probe))) < 0.05


class TestUncorrectedPath:
    """``time_correction=False`` against the per-sample ``voronoi_weights``
    it replaced, on every action slice of small OWA stores.

    The one kernel sums the same cells in another order, so U agrees to
    rounding rather than bitwise (1.1e-15 relative measured).
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_legacy_voronoi_weights(self, seed):
        config = AutoSensConfig(time_correction=False)
        bins = config.bins()
        engine = AutoSens(config)
        logs = owa_scenario(seed=seed, duration_days=3.0, n_users=120).generate().logs
        for action in logs.action_names():
            sliced = logs.where(action=action)
            u = unbiased_histogram(sliced, bins).counts
            legacy = _legacy_unbiased_histogram(sliced, bins)
            np.testing.assert_allclose(u, legacy.counts, rtol=1e-12, atol=0.0)
            stable = u >= config.min_unbiased_count
            assert np.array_equal(stable, legacy.counts >= config.min_unbiased_count)
            if len(sliced) < config.min_actions:
                continue
            nlp = engine.preference_curve(logs, action=action).nlp
            expected = config.computer().compute(
                biased_histogram(sliced, bins), legacy, n_actions=len(sliced)).nlp
            assert np.array_equal(np.isnan(nlp), np.isnan(expected)), action
            np.testing.assert_allclose(nlp, expected, rtol=0.0, atol=1e-12)
