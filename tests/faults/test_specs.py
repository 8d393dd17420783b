"""Unit tests for the fault-spec catalogue: each fault does what it says,
deterministically, without mutating its input."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from tests.faults import (
    DEFAULT_FAULT_SPECS,
    ClockSkew,
    DropFields,
    DuplicateRows,
    FaultPlan,
    GapWindow,
    MalformedLines,
    NaNLatency,
    NegativeLatency,
    OutlierLatency,
    OutOfOrderTimestamps,
    TruncatedLines,
    write_corrupted,
)


def _rows(n=50):
    return [
        {
            "time": float(i * 60),
            "action": "SelectMail",
            "latency_ms": 100.0 + i,
            "user_id": f"u{i % 5}",
            "user_class": "business",
            "success": True,
            "tz_offset_hours": 0.0,
        }
        for i in range(n)
    ]


def _apply(spec, rows, seed=0):
    return FaultPlan(specs=(spec,), seed=seed).apply(rows)


def _freeze(rows):
    """NaN-safe comparable form (NaN != NaN breaks dict equality)."""
    return [
        row if isinstance(row, str) else json.dumps(row, sort_keys=True)
        for row in rows
    ]


class TestFaultPlan:
    def test_deterministic(self):
        rows = _rows()
        plan = FaultPlan(
            specs=(MalformedLines(rate=0.2), NaNLatency(rate=0.2)), seed=42
        )
        assert _freeze(plan.apply(rows)) == _freeze(plan.apply(rows))

    def test_seed_changes_output(self):
        rows = _rows()
        a = FaultPlan(specs=(ClockSkew(rate=1.0),), seed=1).apply(rows)
        b = FaultPlan(specs=(ClockSkew(rate=1.0),), seed=2).apply(rows)
        assert a != b

    def test_input_rows_not_mutated(self):
        rows = _rows()
        snapshot = [dict(r) for r in rows]
        FaultPlan(
            specs=(NaNLatency(rate=1.0), DropFields(rate=1.0)), seed=0
        ).apply(rows)
        assert rows == snapshot

    def test_describe(self):
        plan = FaultPlan(specs=(NaNLatency(), GapWindow()), seed=0)
        assert plan.describe() == "NaNLatency -> GapWindow"
        assert FaultPlan().describe() == "(no faults)"

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            NaNLatency(rate=1.5)
        with pytest.raises(ConfigError):
            OutOfOrderTimestamps(window=1)
        with pytest.raises(ConfigError):
            GapWindow(start_frac=2.0)


class TestIndividualSpecs:
    def test_malformed_lines_emit_strings(self):
        out = _apply(MalformedLines(rate=1.0), _rows())
        assert out and all(isinstance(r, str) for r in out)
        for line in out:
            with pytest.raises(Exception):
                parsed = json.loads(line)
                if not isinstance(parsed, dict):
                    raise ValueError("not an object")

    def test_truncated_lines_are_cut_json(self):
        out = _apply(TruncatedLines(rate=1.0), _rows())
        assert all(isinstance(r, str) for r in out)
        full = json.dumps(_rows()[0], separators=(",", ":"))
        assert all(len(r) < len(full) + 40 for r in out)

    def test_nan_latency(self):
        out = _apply(NaNLatency(rate=1.0), _rows())
        assert all(math.isnan(r["latency_ms"]) for r in out)

    def test_negative_latency(self):
        out = _apply(NegativeLatency(rate=1.0), _rows())
        assert all(r["latency_ms"] < 0 for r in out)

    def test_outlier_latency(self):
        rows = _rows()
        out = _apply(OutlierLatency(rate=1.0, factor=1000.0), rows)
        assert all(
            got["latency_ms"] == src["latency_ms"] * 1000.0
            for got, src in zip(out, rows)
        )

    def test_clock_skew_bounded(self):
        rows = _rows()
        out = _apply(ClockSkew(rate=1.0, max_skew_s=100.0), rows)
        deltas = [abs(g["time"] - s["time"]) for g, s in zip(out, rows)]
        assert max(deltas) <= 100.0
        assert max(deltas) > 0.0

    def test_out_of_order_preserves_multiset(self):
        rows = _rows(64)
        out = _apply(OutOfOrderTimestamps(rate=1.0, window=8), rows)
        assert len(out) == len(rows)
        key = lambda r: r["time"]
        assert sorted(out, key=key) == sorted(rows, key=key)
        assert out != rows

    def test_duplicate_rows_grow_the_stream(self):
        rows = _rows()
        out = _apply(DuplicateRows(rate=1.0), rows)
        assert len(out) == 2 * len(rows)

    def test_drop_fields(self):
        out = _apply(DropFields(rate=1.0, fields=("latency_ms", "action")), _rows())
        assert all("latency_ms" not in r and "action" not in r for r in out)

    def test_gap_window_removes_a_time_band(self):
        rows = _rows(100)  # times 0..5940
        out = _apply(GapWindow(start_frac=0.5, length_frac=0.1), rows)
        assert len(out) < len(rows)
        span = 99 * 60.0
        lo, hi = 0.5 * span, 0.6 * span
        assert all(not (lo <= r["time"] < hi) for r in out)
        # Rows outside the window survive untouched.
        assert all(r in rows for r in out)

    def test_default_catalogue_instantiates(self):
        for name, factory in DEFAULT_FAULT_SPECS.items():
            spec = factory()
            assert spec.name
            assert _apply(spec, _rows(40), seed=3) is not None


class TestWriteCorrupted:
    def test_nan_round_trips_to_disk(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        rows = _apply(NaNLatency(rate=1.0), _rows(3))
        assert write_corrupted(rows, path) == 3
        reparsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(math.isnan(r["latency_ms"]) for r in reparsed)

    def test_raw_strings_written_verbatim(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        write_corrupted(["{not json", {"time": 1.0}], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "{not json"
        assert json.loads(lines[1]) == {"time": 1.0}
