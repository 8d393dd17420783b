"""Tests for the ActionRecord schema."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import SchemaError
from repro.telemetry.record import ActionRecord


class TestValidation:
    def test_minimal_record(self):
        record = ActionRecord(time=0.0, action="SelectMail", latency_ms=120.0)
        assert record.success
        assert record.user_id == ""

    def test_rejects_empty_action(self):
        with pytest.raises(SchemaError):
            ActionRecord(time=0.0, action="", latency_ms=1.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(SchemaError):
            ActionRecord(time=0.0, action="a", latency_ms=-1.0)

    def test_rejects_absurd_tz(self):
        with pytest.raises(SchemaError):
            ActionRecord(time=0.0, action="a", latency_ms=1.0, tz_offset_hours=30.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"action": ""}, "action must be a non-empty string, got ''"),
        ({"action": 7}, "action must be a non-empty string, got 7"),
        ({"latency_ms": -1.0}, "latency must be non-negative, got -1.0"),
        ({"tz_offset_hours": 30.0},
         r"tz_offset_hours out of range \[-24, 24\]: 30.0"),
        ({"tz_offset_hours": -24.5},
         r"tz_offset_hours out of range \[-24, 24\]: -24.5"),
    ])
    def test_validation_messages(self, kwargs, message):
        fields = {"time": 0.0, "action": "a", "latency_ms": 1.0, **kwargs}
        with pytest.raises(SchemaError, match=f"^{message}$"):
            ActionRecord(**fields)

    def test_tz_bounds_are_inclusive(self):
        for tz in (-24.0, 24.0):
            assert ActionRecord(0.0, "a", 1.0, tz_offset_hours=tz).tz_offset_hours == tz

    def test_local_time(self):
        record = ActionRecord(time=3600.0, action="a", latency_ms=1.0,
                              tz_offset_hours=-2.0)
        assert record.local_time() == 3600.0 - 7200.0


class TestRoundTrip:
    def test_dict_round_trip(self):
        record = ActionRecord(
            time=12.5, action="Search", latency_ms=432.1,
            user_id="guid", user_class="consumer", success=False,
            tz_offset_hours=5.5, extra={"region": "us"},
        )
        clone = ActionRecord.from_dict(record.to_dict())
        assert clone.time == record.time
        assert clone.action == record.action
        assert clone.latency_ms == record.latency_ms
        assert clone.user_id == record.user_id
        assert clone.user_class == record.user_class
        assert clone.success is False
        assert clone.tz_offset_hours == 5.5
        assert clone.extra == {"region": "us"}

    def test_extra_omitted_when_empty(self):
        record = ActionRecord(time=0.0, action="a", latency_ms=1.0)
        assert "extra" not in record.to_dict()

    def test_from_dict_defaults(self):
        clone = ActionRecord.from_dict(
            {"time": 1, "action": "a", "latency_ms": 2}
        )
        assert clone.success is True
        assert clone.tz_offset_hours == 0.0

    def test_from_dict_missing_field(self):
        with pytest.raises(SchemaError):
            ActionRecord.from_dict({"action": "a", "latency_ms": 2})

    def test_from_dict_bad_type(self):
        with pytest.raises(SchemaError):
            ActionRecord.from_dict({"time": "not-a-number", "action": "a",
                                    "latency_ms": 2})

    def test_frozen(self):
        record = ActionRecord(time=0.0, action="a", latency_ms=1.0)
        with pytest.raises(AttributeError):
            record.time = 5.0


class TestValueSemantics:
    def _record(self, **extra):
        return ActionRecord(time=12.5, action="Search", latency_ms=432.1,
                            user_id="guid", user_class="consumer",
                            success=False, tz_offset_hours=5.5, **extra)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ActionRecord)])
    def test_every_field_is_frozen(self, name):
        record = self._record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)

    def test_positional_and_keyword_construction_agree(self):
        positional = ActionRecord(12.5, "Search", 432.1, "guid", "consumer",
                                  False, 5.5, {})
        assert positional == self._record()

    def test_equality_and_repr(self):
        assert self._record() == self._record()
        assert self._record() != self._record(extra={"region": "us"})
        assert repr(self._record()) == (
            "ActionRecord(time=12.5, action='Search', latency_ms=432.1, "
            "user_id='guid', user_class='consumer', success=False, "
            "tz_offset_hours=5.5, extra={})")

    def test_extra_default_is_a_fresh_dict(self):
        first, second = self._record(), self._record()
        assert first.extra == {} and isinstance(first.extra, dict)
        assert first.extra is not second.extra
        assert ActionRecord(0.0, "a", 1.0, extra=None).extra is None

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        record = self._record(extra={"region": "us"})
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.time = 0.0

    def test_copy_and_replace(self):
        record = self._record()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        moved = dataclasses.replace(record, latency_ms=10.0)
        assert moved.latency_ms == 10.0 and moved.action == "Search"
        with pytest.raises(SchemaError):
            dataclasses.replace(record, latency_ms=-1.0)
