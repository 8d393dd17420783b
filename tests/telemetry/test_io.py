"""Tests for JSONL and CSV telemetry IO."""

import csv
import gzip
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.telemetry import (
    ActionRecord,
    IngestPolicy,
    iter_jsonl,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from repro.telemetry.csvio import FIELDS

#: Skip every bad row, however many.
LENIENT = IngestPolicy(mode="lenient", max_bad_share=1.0)


@pytest.fixture()
def records():
    return [
        ActionRecord(time=float(i), action="SelectMail", latency_ms=100.0 + i,
                     user_id=f"u{i % 2}", user_class="business",
                     success=(i != 3), tz_offset_hours=-5.0)
        for i in range(6)
    ]


class TestJsonl:
    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        assert write_jsonl(records, path) == 6
        store = read_jsonl(path)
        assert len(store) == 6
        assert np.allclose(store.latencies_ms, [100.0 + i for i in range(6)])
        assert store.success.sum() == 5
        assert (store.tz_offsets == -5.0).all()

    def test_gzip_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.jsonl.gz"
        write_jsonl(records, path)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("{")
        store = read_jsonl(path)
        assert len(store) == 6

    def test_blank_lines_skipped(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records, path)
        content = path.read_text()
        path.write_text(content.replace("\n", "\n\n"))
        assert len(read_jsonl(path)) == 6

    def test_strict_raises_with_line_number(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records[:2], path)
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        with pytest.raises(SchemaError, match=":3"):
            read_jsonl(path)

    def test_lenient_skips_bad_lines(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records[:2], path)
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        assert len(read_jsonl(path, policy=LENIENT)) == 2

    def test_iter_is_lazy(self, records, tmp_path):
        path = tmp_path / "logs.jsonl"
        write_jsonl(records, path)
        iterator = iter_jsonl(path)
        first = next(iterator)
        assert first.time == 0.0


class TestCsv:
    def test_round_trip(self, records, tmp_path):
        path = tmp_path / "logs.csv"
        assert write_csv(records, path) == 6
        store = read_csv(path)
        assert len(store) == 6
        assert store.success.sum() == 5
        assert store.actions.tolist() == ["SelectMail"] * 6

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,action\n1.0,a\n")
        with pytest.raises(SchemaError, match="latency_ms"):
            read_csv(path)

    def test_strict_bad_row(self, records, tmp_path):
        path = tmp_path / "logs.csv"
        write_csv(records[:1], path)
        with open(path, "a") as fh:
            fh.write("oops,SelectMail,xyz,,,1,0\n")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_lenient_bad_row(self, records, tmp_path):
        path = tmp_path / "logs.csv"
        write_csv(records[:1], path)
        with open(path, "a") as fh:
            fh.write("oops,SelectMail,xyz,,,1,0\n")
        assert len(read_csv(path, policy=LENIENT)) == 1

    def test_jsonl_csv_agree(self, records, tmp_path):
        jsonl_store = read_jsonl(
            (lambda p: (write_jsonl(records, p), p)[1])(tmp_path / "a.jsonl")
        )
        csv_store = read_csv(
            (lambda p: (write_csv(records, p), p)[1])(tmp_path / "a.csv")
        )
        assert np.allclose(jsonl_store.latencies_ms, csv_store.latencies_ms)
        assert np.allclose(jsonl_store.times, csv_store.times)


# -- the batched writers against the per-record writers, byte for byte ------

def reference_jsonl(records) -> bytes:
    """The per-record JSONL writer the batched one replaced."""
    return "".join(json.dumps(r.to_dict(), separators=(",", ":")) + "\n"
                   for r in records).encode("utf-8")


def reference_csv(records, path) -> bytes:
    """The per-record ``DictWriter`` CSV writer the batched one replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, extrasaction="ignore")
        writer.writeheader()
        for record in records:
            row = record.to_dict()
            row["success"] = int(row["success"])
            writer.writerow(row)
    return path.read_bytes()


def read_bytes(path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


# Strings with JSON and CSV metacharacters and non-ASCII text.
_text = st.text(alphabet=st.sampled_from('ab"\\,}{:\n é✓\U0001F600'), max_size=6)
_number = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32).map(np.float64),  # a float subclass: per-value path
)
_record = st.builds(
    ActionRecord,
    time=st.one_of(_number, _text),  # text may hold commas: per-value path
    action=_text.filter(bool),
    latency_ms=st.one_of(st.integers(0, 10 ** 6),
                         st.floats(min_value=0.0, allow_infinity=True),
                         st.just(float("nan"))),
    user_id=st.one_of(_text, st.integers(0, 99)),  # a non-str: per-value path
    user_class=_text,
    success=st.booleans(),
    tz_offset_hours=st.one_of(st.floats(-24.0, 24.0), st.integers(-24, 24)),
    extra=st.one_of(st.just({}), st.dictionaries(
        _text, st.one_of(_text, st.integers(), st.floats(), st.booleans(),
                         st.none()), max_size=3)),
)

#: Empty, one row, and either side of the 8192-row batch boundary.
ROW_COUNTS = (0, 1, 8191, 8192, 8193)


def _rows(pool, n):
    return [pool[i % len(pool)] for i in range(n)]


@pytest.mark.parametrize("n", ROW_COUNTS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(_record, min_size=1, max_size=12), gz=st.booleans())
def test_write_jsonl_bytes_match_per_record_writer(tmp_path, n, pool, gz):
    records = _rows(pool, n)
    path = tmp_path / ("out.jsonl.gz" if gz else "out.jsonl")
    assert write_jsonl(records, path) == n
    assert read_bytes(path) == reference_jsonl(records)


@pytest.mark.parametrize("n", ROW_COUNTS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(_record, min_size=1, max_size=12))
def test_write_csv_bytes_match_per_record_writer(tmp_path, n, pool):
    records = _rows(pool, n)
    assert write_csv(iter(records), tmp_path / "out.csv") == n
    assert ((tmp_path / "out.csv").read_bytes()
            == reference_csv(records, tmp_path / "ref.csv"))


def test_writers_take_a_store(records, tmp_path):
    store = read_jsonl((lambda p: (write_jsonl(records, p), p)[1])(tmp_path / "a.jsonl"))
    assert write_jsonl(store, tmp_path / "b.jsonl") == len(records)
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
    assert write_csv(store, tmp_path / "b.csv") == len(records)
    assert (tmp_path / "b.csv").read_bytes() == reference_csv(records, tmp_path / "a.csv")
