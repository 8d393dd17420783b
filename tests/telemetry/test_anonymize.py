"""Tests for anonymization and the aggregate-size privacy guard."""

import pytest

from repro.errors import PrivacyError
from repro.telemetry import (
    ActionRecord,
    LogStore,
    anonymize_user_id,
    is_guid_shaped,
    require_min_aggregate,
)


class TestAnonymize:
    def test_guid_shape(self):
        token = anonymize_user_id("alice@example.com")
        assert is_guid_shaped(token)

    def test_deterministic(self):
        assert anonymize_user_id("bob") == anonymize_user_id("bob")

    def test_distinct_inputs_distinct_outputs(self):
        assert anonymize_user_id("a") != anonymize_user_id("b")

    def test_key_changes_mapping(self):
        assert anonymize_user_id("a", key=b"k1") != anonymize_user_id("a", key=b"k2")

    def test_is_guid_shaped_rejects_junk(self):
        assert not is_guid_shaped("hello")
        assert not is_guid_shaped("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz")
        assert not is_guid_shaped("0123456789ab-cdef")


class TestAggregateGuard:
    def _store(self, n_users):
        records = [
            ActionRecord(time=float(i), action="a", latency_ms=1.0,
                         user_id=f"u{i}")
            for i in range(n_users)
        ]
        return LogStore.from_records(records)

    def test_passes_large_aggregate(self):
        store = self._store(60)
        assert require_min_aggregate(store, min_users=50) is store

    def test_rejects_small_aggregate(self):
        with pytest.raises(PrivacyError, match="aggregate covers only 10"):
            require_min_aggregate(self._store(10), min_users=50)

    def test_rejects_empty(self):
        with pytest.raises(PrivacyError):
            require_min_aggregate(LogStore.from_records([]), min_users=1)

    def test_custom_label_in_message(self):
        with pytest.raises(PrivacyError, match="quartile Q1"):
            require_min_aggregate(self._store(3), min_users=5, what="quartile Q1")
