"""Tests for streaming/chunked analysis and the aggregate exchange."""

import numpy as np
import pytest

from repro.errors import ConfigError, EmptyDataError, InsufficientDataError, SchemaError
from repro.core import AutoSens, AutoSensConfig
from repro.core.aggregate import curve_from_counts, load_counts, save_counts
from repro.core.alpha import slotted_counts
from repro.core.streaming import (
    StreamingAutoSens,
    iter_chunks_by_day,
    merge_slotted_counts,
)
from repro.stats.histogram import latency_bins
from repro.telemetry import LogStore


@pytest.fixture(scope="module")
def sliced_logs(owa_result):
    return owa_result.logs.where(action="SelectMail", user_class="business")


@pytest.fixture(scope="module")
def config():
    return AutoSensConfig(seed=3)


class TestChunking:
    def test_chunks_partition_rows(self, sliced_logs):
        chunks = list(iter_chunks_by_day(sliced_logs, days_per_chunk=1.0))
        assert sum(len(c) for c in chunks) == len(sliced_logs)
        assert len(chunks) >= 4

    def test_chunks_ordered_disjoint(self, sliced_logs):
        chunks = list(iter_chunks_by_day(sliced_logs, days_per_chunk=1.0))
        for a, b in zip(chunks, chunks[1:]):
            assert a.times.max() < b.times.min() + 86400.0

    def test_bad_width(self, sliced_logs):
        with pytest.raises(ConfigError):
            list(iter_chunks_by_day(sliced_logs, days_per_chunk=0.0))

    def test_empty_logs_no_chunks(self):
        assert list(iter_chunks_by_day(LogStore.from_records([]))) == []


def _regular_store(start, end, step=60.0):
    """One action every ``step`` seconds over ``[start, end]``."""
    times = np.arange(start, end + step / 2, step)
    return LogStore.from_arrays(
        times, np.full(times.size, 250.0), ["SelectMail"] * times.size)


class TestSlotTimeCoverage:
    """``slot_seconds`` holds the exact seconds of sample time per slot."""

    def test_full_day_equal_hours(self):
        counts = slotted_counts(_regular_store(0.0, 86400.0 - 1.0, 1.0),
                                latency_bins(3000.0, 10.0))
        assert np.array_equal(counts.slot_ids, np.arange(24))
        assert np.allclose(counts.slot_seconds[:-1], 3600.0)
        assert counts.slot_seconds[-1] == 3599.0

    def test_partial_window(self):
        counts = slotted_counts(_regular_store(0.0, 7200.0),
                                latency_bins(3000.0, 10.0))
        # The sample at 7200 s opens slot 2 but covers no time.
        assert counts.slot_seconds.tolist() == [3600.0, 3600.0, 0.0]

    def test_empty_window(self):
        store = _regular_store(10.0, 10.0)
        counts = slotted_counts(store, latency_bins(3000.0, 10.0))
        assert len(store) == 1
        assert counts.slot_seconds.sum() == 0.0


class TestMerge:
    def test_merge_identity(self, sliced_logs, config):
        counts = slotted_counts(sliced_logs, config.bins())
        merged = merge_slotted_counts([counts])
        assert np.allclose(merged.biased_counts, counts.biased_counts)
        assert np.allclose(merged.time_fractions, counts.time_fractions)

    def test_merge_adds_biased_counts(self, sliced_logs, config):
        counts = slotted_counts(sliced_logs, config.bins())
        merged = merge_slotted_counts([counts, counts])
        assert np.allclose(merged.biased_counts, 2 * counts.biased_counts)

    def test_merge_rejects_mixed_schemes(self, sliced_logs, config):
        a = slotted_counts(sliced_logs, config.bins(), scheme="hour-of-day")
        b = slotted_counts(sliced_logs, config.bins(), scheme="period")
        with pytest.raises(ConfigError):
            merge_slotted_counts([a, b])

    def test_merge_empty(self):
        with pytest.raises(EmptyDataError):
            merge_slotted_counts([])


class TestStreamingAutoSens:
    def test_matches_batch(self, owa_result, sliced_logs, config):
        batch = AutoSens(config).preference_curve(
            owa_result.logs, action="SelectMail", user_class="business")
        stream = StreamingAutoSens(AutoSensConfig(seed=3))
        for chunk in iter_chunks_by_day(sliced_logs, days_per_chunk=1.0):
            stream.consume(chunk.successful())
        curve = stream.preference_curve()
        # U is exact on both sides, but each chunk's Voronoi cells stop at
        # the chunk's edge samples, so daily chunks move the curve a little.
        for probe in (500.0, 900.0):
            assert abs(float(curve.at(probe)) - float(batch.at(probe))) < 0.08

    def test_one_chunk_matches_batch(self, owa_result, sliced_logs, config):
        batch = AutoSens(config).preference_curve(
            owa_result.logs, action="SelectMail", user_class="business")
        stream = StreamingAutoSens(config)
        stream.consume(sliced_logs)
        curve = stream.preference_curve()
        assert np.array_equal(np.isnan(curve.nlp), np.isnan(batch.nlp))
        np.testing.assert_allclose(curve.nlp, batch.nlp, rtol=0.0, atol=1e-12)

    def test_n_rows_tracks(self, sliced_logs):
        stream = StreamingAutoSens(AutoSensConfig(seed=3))
        stream.consume(sliced_logs.successful())
        assert stream.n_rows == int(sliced_logs.success.sum())

    def test_empty_chunk_ignored(self, sliced_logs):
        stream = StreamingAutoSens(AutoSensConfig(seed=3))
        stream.consume(LogStore.from_records([]))
        assert stream.n_rows == 0

    def test_too_few_rows(self):
        stream = StreamingAutoSens(AutoSensConfig(seed=3, min_actions=10**9))
        with pytest.raises(InsufficientDataError):
            stream.preference_curve()

    def test_no_chunks(self):
        with pytest.raises(EmptyDataError):
            StreamingAutoSens().merged_counts()

    def test_metadata(self, sliced_logs):
        stream = StreamingAutoSens(AutoSensConfig(seed=3))
        for chunk in iter_chunks_by_day(sliced_logs, days_per_chunk=2.0):
            stream.consume(chunk.successful(), description="demo")
        curve = stream.preference_curve()
        assert curve.metadata["chunks"] >= 2
        assert curve.slice_description == "demo"


class TestAggregateExchange:
    def test_round_trip(self, sliced_logs, config, tmp_path):
        counts = slotted_counts(sliced_logs, config.bins())
        path = tmp_path / "counts.json"
        save_counts(counts, path)
        clone = load_counts(path)
        assert clone.scheme == counts.scheme
        assert clone.bins == counts.bins
        assert np.allclose(clone.biased_counts, counts.biased_counts)
        assert np.allclose(clone.time_fractions, counts.time_fractions)
        assert np.allclose(clone.slot_seconds, counts.slot_seconds)

    def test_curve_from_counts_matches(self, sliced_logs, config, tmp_path):
        counts = slotted_counts(sliced_logs, config.bins())
        path = tmp_path / "counts.json"
        save_counts(counts, path)
        a = curve_from_counts(counts, config)
        b = curve_from_counts(load_counts(path), config)
        assert np.allclose(a.nlp, b.nlp, equal_nan=True)
        assert a.metadata["from_aggregates"] is True

    def test_no_user_data_in_file(self, sliced_logs, config, tmp_path):
        """The exported file must contain no GUIDs or raw timestamps."""
        counts = slotted_counts(sliced_logs, config.bins())
        path = tmp_path / "counts.json"
        save_counts(counts, path)
        text = path.read_text()
        for guid in sliced_logs.user_vocab[:20]:
            if guid:
                assert guid not in text

    @pytest.mark.parametrize("predicate", [
        {"action": "SelectMail"},
        {"action": "SelectMail", "user_class": "business"},
        {"user_class": "business"},
        {},
    ])
    def test_table_curve_is_the_batch_curve(self, owa_result, predicate):
        """A table of a slice gives the batch curve of that slice, bitwise."""
        config = AutoSensConfig(seed=3)
        batch = AutoSens(config).preference_curve(owa_result.logs, **predicate)
        counts = slotted_counts(owa_result.logs.where(**predicate), config.bins())
        table = curve_from_counts(counts, config)
        assert np.array_equal(table.nlp, batch.nlp, equal_nan=True)
        assert np.array_equal(table.raw_ratio, batch.raw_ratio, equal_nan=True)
        assert table.metadata["reference_slots"] == batch.metadata["reference_slots"]

    def test_uncorrected_config_rejected(self, sliced_logs):
        counts = slotted_counts(sliced_logs, AutoSensConfig().bins())
        with pytest.raises(ConfigError, match="time_correction"):
            curve_from_counts(counts, AutoSensConfig(time_correction=False))

    def test_bin_grid_mismatch(self, sliced_logs, config):
        counts = slotted_counts(sliced_logs, latency_bins(2000.0, 10.0))
        with pytest.raises(ConfigError):
            curve_from_counts(counts, config)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_counts(path)
        path.write_text('{"format_version": 99}')
        with pytest.raises(SchemaError):
            load_counts(path)
