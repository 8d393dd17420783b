"""Tests for sessionization."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.telemetry import (
    ActionRecord,
    LogStore,
    sessionize,
)


def _store(rows):
    return LogStore.from_records([
        ActionRecord(time=t, action="a", latency_ms=lat, user_id=user)
        for t, lat, user in rows
    ])


class TestSessionize:
    def test_single_session(self):
        store = _store([(0.0, 100.0, "u"), (10.0, 120.0, "u"), (20.0, 110.0, "u")])
        sessions = sessionize(store, gap_seconds=60.0)
        assert len(sessions) == 1
        assert sessions[0].n_actions == 3
        assert np.isclose(sessions[0].mean_latency_ms, 110.0)

    def test_gap_splits(self):
        store = _store([(0.0, 100.0, "u"), (10.0, 100.0, "u"), (10_000.0, 100.0, "u")])
        sessions = sessionize(store, gap_seconds=60.0)
        assert [s.n_actions for s in sessions] == [2, 1]

    def test_users_never_share_sessions(self):
        store = _store([(0.0, 100.0, "a"), (1.0, 100.0, "b"), (2.0, 100.0, "a")])
        sessions = sessionize(store, gap_seconds=1e6)
        assert len(sessions) == 2
        assert sorted(s.n_actions for s in sessions) == [1, 2]

    def test_unsorted_input_ok(self):
        store = _store([(20.0, 100.0, "u"), (0.0, 100.0, "u"), (10.0, 100.0, "u")])
        sessions = sessionize(store, gap_seconds=60.0)
        assert len(sessions) == 1
        assert sessions[0].start == 0.0 and sessions[0].end == 20.0

    def test_empty_logs(self):
        assert sessionize(LogStore.from_records([])) == []

    def test_bad_gap(self):
        with pytest.raises(ConfigError):
            sessionize(_store([(0.0, 1.0, "u")]), gap_seconds=0.0)

    def test_duration_property(self):
        store = _store([(5.0, 100.0, "u"), (25.0, 100.0, "u")])
        session = sessionize(store, gap_seconds=60.0)[0]
        assert session.duration == 20.0
