"""Tests for random-time draws and nearest-in-time selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyDataError
from repro.stats.sampling import (
    GUIDE_TABLE_SIZE,
    InverseCdf,
    nearest_time_sample,
    random_times,
    sorted_by_time,
)


class TestRandomTimes:
    def test_in_range(self):
        draws = random_times(10.0, 20.0, 1000, rng=1)
        assert draws.size == 1000
        assert draws.min() >= 10.0
        assert draws.max() < 20.0

    def test_roughly_uniform(self):
        draws = random_times(0.0, 1.0, 20000, rng=2)
        hist, _ = np.histogram(draws, bins=10, range=(0, 1))
        assert hist.min() > 1500  # each decile ~2000

    def test_zero_draws(self):
        assert random_times(0.0, 1.0, 0, rng=3).size == 0

    def test_rejects_empty_window(self):
        with pytest.raises(EmptyDataError):
            random_times(5.0, 5.0, 10)

    def test_rejects_negative_count(self):
        with pytest.raises(EmptyDataError):
            random_times(0.0, 1.0, -1)


class TestNearestTimeSample:
    def test_exact_hits(self):
        times = np.array([0.0, 10.0, 20.0])
        idx = nearest_time_sample(times, np.array([0.0, 10.0, 20.0]), rng=1)
        assert idx.tolist() == [0, 1, 2]

    def test_nearest_selection(self):
        times = np.array([0.0, 10.0, 20.0])
        idx = nearest_time_sample(times, np.array([2.0, 9.0, 16.0]), rng=1)
        assert idx.tolist() == [0, 1, 2]

    def test_outside_range_clamps(self):
        times = np.array([5.0, 10.0])
        idx = nearest_time_sample(times, np.array([-100.0, 100.0]), rng=1)
        assert idx.tolist() == [0, 1]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 100, 50))
        # keep times distinct so the answer is unique
        times = np.unique(times)
        queries = rng.uniform(0, 100, 200)
        idx = nearest_time_sample(times, queries, rng=6)
        brute = np.argmin(np.abs(queries[:, None] - times[None, :]), axis=1)
        distances_fast = np.abs(queries - times[idx])
        distances_brute = np.abs(queries - times[brute])
        assert np.allclose(distances_fast, distances_brute)

    def test_midpoint_tie_is_random(self):
        times = np.array([0.0, 10.0])
        queries = np.full(2000, 5.0)
        idx = nearest_time_sample(times, queries, rng=7)
        share = idx.mean()
        assert 0.4 < share < 0.6

    def test_duplicate_timestamps_random_among_run(self):
        times = np.array([0.0, 5.0, 5.0, 5.0, 10.0])
        queries = np.full(3000, 5.2)
        idx = nearest_time_sample(times, queries, rng=8)
        counts = np.bincount(idx, minlength=5)
        assert counts[0] == 0 and counts[4] == 0
        assert all(c > 700 for c in counts[1:4])

    def test_requires_sorted(self):
        with pytest.raises(EmptyDataError):
            nearest_time_sample(np.array([3.0, 1.0]), np.array([2.0]))

    def test_requires_samples(self):
        with pytest.raises(EmptyDataError):
            nearest_time_sample(np.array([]), np.array([1.0]))

    def test_single_sample(self):
        idx = nearest_time_sample(np.array([42.0]), np.array([0.0, 100.0]), rng=9)
        assert idx.tolist() == [0, 0]


class TestSortedByTime:
    def test_sorts_parallel_columns(self):
        times = np.array([3.0, 1.0, 2.0])
        values = np.array([30.0, 10.0, 20.0])
        t_sorted, v_sorted = sorted_by_time(times, values)
        assert t_sorted.tolist() == [1.0, 2.0, 3.0]
        assert v_sorted.tolist() == [10.0, 20.0, 30.0]

    def test_stable_on_ties(self):
        times = np.array([1.0, 1.0])
        tags = np.array(["a", "b"], dtype=object)
        _, sorted_tags = sorted_by_time(times, tags)
        assert sorted_tags.tolist() == ["a", "b"]


@given(
    st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=60),
    st.lists(st.floats(min_value=-100.0, max_value=1100.0), min_size=1, max_size=60),
)
@settings(max_examples=50, deadline=None)
def test_nearest_distance_optimal(sample_list, query_list):
    """Property: the selected sample is never farther than the true nearest."""
    times = np.sort(np.asarray(sample_list))
    queries = np.asarray(query_list)
    idx = nearest_time_sample(times, queries, rng=0)
    best = np.min(np.abs(queries[:, None] - times[None, :]), axis=1)
    chosen = np.abs(queries - times[idx])
    assert np.allclose(chosen, best, atol=1e-9)


def _probabilities():
    """Named ``p`` vectors: skewed, with zeros, tiny and subnormal entries,
    a single entry, and more entries than the guide table has buckets."""
    rng = np.random.default_rng(0)
    skewed = np.exp(rng.normal(-0.32, 0.8, 1800))
    gappy = rng.random(60)
    gappy[::3] = 0.0
    gappy[[5, 7, 9]] = (1e-300, 5e-324, 1e-17)
    sparse = np.zeros(3 * GUIDE_TABLE_SIZE)
    sparse[rng.integers(0, sparse.size, 300)] = rng.random(300)
    return {
        "skewed": skewed / skewed.sum(),
        "zeros": np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0]),
        "gappy": gappy / gappy.sum(),
        "leading-and-trailing-zeros": np.array([0.0, 0.3, 0.7, 0.0]),
        "single": np.array([1.0]),
        "uniform-wide": np.full(2 * GUIDE_TABLE_SIZE, 1.0 / (2 * GUIDE_TABLE_SIZE)),
        "sparse-wide": sparse / sparse.sum(),
    }


class TestInverseCdf:
    @pytest.mark.parametrize("name", sorted(_probabilities()))
    def test_draw_is_generator_choice(self, name):
        p = _probabilities()[name]
        ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
        for m in (0, 1, 5000, 200_000):
            expected = numpys.choice(p.size, size=m, p=p)
            drawn = InverseCdf(p).draw(ours, m)
            assert drawn.dtype == expected.dtype
            np.testing.assert_array_equal(drawn, expected)
        # The same stream was consumed, so the generators stay in step.
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_zero_probability_is_never_drawn(self):
        p = _probabilities()["zeros"]
        drawn = InverseCdf(p).draw(np.random.default_rng(2), 50_000)
        assert set(np.unique(drawn)) == {1, 4}

    @pytest.mark.parametrize("p, message", [
        ([0.5, np.nan, 0.5], "NaN"),
        ([1.5, -0.5], "non-negative"),
        ([0.3, 0.3], "sum to 1"),
        ([[0.5, 0.5]], "1-dimensional"),
    ])
    def test_rejects_what_choice_rejects(self, p, message):
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(0).choice(len(p), size=3, p=p)
        with pytest.raises(ValueError, match=message):
            InverseCdf(p)

    def test_rejects_an_empty_p(self):
        with pytest.raises(ValueError, match="non-empty"):
            InverseCdf([])
