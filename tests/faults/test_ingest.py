"""Resilient ingestion: policy modes, error budget, quarantine sink."""

import json

import pytest

from repro.errors import ConfigError, IngestError, SchemaError
from repro.telemetry import (
    ActionRecord,
    IngestPolicy,
    LogStore,
    quality_report,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)


def _records(n=20):
    return [
        ActionRecord(
            time=float(i * 60),
            action="SelectMail",
            latency_ms=100.0 + i,
            user_id=f"u{i % 4}",
            user_class="business",
            success=True,
            tz_offset_hours=0.0,
        )
        for i in range(n)
    ]


@pytest.fixture()
def dirty_jsonl(tmp_path):
    """20 good rows plus 3 bad ones (garbage, NaN, missing field)."""
    path = tmp_path / "dirty.jsonl"
    write_jsonl(_records(), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{definitely not json\n")
        fh.write(json.dumps({
            "time": 50.0, "action": "Search", "latency_ms": float("nan"),
            "user_id": "u9", "user_class": "business", "success": True,
            "tz_offset_hours": 0.0,
        }) + "\n")
        fh.write('{"time": 60.0, "action": "Search"}\n')
    return path


class TestPolicyObject:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            IngestPolicy(mode="yolo")

    def test_quarantine_requires_path(self):
        with pytest.raises(ConfigError):
            IngestPolicy(mode="quarantine")

    def test_of_coerces_names(self, tmp_path):
        assert IngestPolicy.of(None).mode == "strict"
        assert IngestPolicy.of("lenient").mode == "lenient"
        policy = IngestPolicy.of("quarantine", tmp_path / "q.jsonl")
        assert policy.mode == "quarantine"
        assert IngestPolicy.of(policy) is policy


class TestStrict:
    def test_first_bad_row_raises_with_lineno(self, dirty_jsonl):
        with pytest.raises(SchemaError) as excinfo:
            read_jsonl(dirty_jsonl)
        assert ":21:" in str(excinfo.value)  # the garbage line

    def test_clean_file_reports_clean(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        write_jsonl(_records(), path)
        logs = read_jsonl(path)
        assert logs.ingest_report.clean
        assert logs.n_skipped_rows == 0


class TestLenient:
    def test_skips_and_counts(self, dirty_jsonl):
        logs = read_jsonl(
            dirty_jsonl, policy=IngestPolicy(mode="lenient", max_bad_share=0.5)
        )
        assert len(logs) == 20
        report = logs.ingest_report
        assert report.n_bad == 3
        assert logs.n_skipped_rows == 3
        assert report.reasons["json-decode"] == 1
        assert report.reasons["non-finite"] == 1
        assert report.reasons["schema"] == 1
        assert [b.lineno for b in report.sample] == [21, 22, 23]

    def test_unlimited_error_budget_skips(self, dirty_jsonl):
        logs = read_jsonl(
            dirty_jsonl, policy=IngestPolicy(mode="lenient", max_bad_share=1.0)
        )
        assert len(logs) == 20
        # The skip count is reported, not silently lost.
        assert logs.n_skipped_rows == 3

    def test_error_budget_enforced(self, dirty_jsonl):
        policy = IngestPolicy(mode="lenient", max_bad_share=0.01)
        with pytest.raises(IngestError) as excinfo:
            read_jsonl(dirty_jsonl, policy=policy)
        report = excinfo.value.report
        assert report is not None
        assert report.n_bad == 3
        assert not report.within_budget


class TestQuarantine:
    def test_bad_rows_land_in_the_sink(self, dirty_jsonl, tmp_path):
        sink = tmp_path / "rejects.jsonl"
        policy = IngestPolicy(
            mode="quarantine", max_bad_share=0.5, quarantine_path=sink
        )
        logs = read_jsonl(dirty_jsonl, policy=policy)
        assert len(logs) == 20
        entries = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(entries) == 3
        assert entries[0]["lineno"] == 21
        assert entries[0]["reason"] == "json-decode"
        assert entries[1]["reason"] == "non-finite"
        assert entries[2]["reason"] == "schema"
        assert all(e["source"].endswith("dirty.jsonl") for e in entries)

    def test_clean_read_writes_no_sink(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        write_jsonl(_records(), path)
        sink = tmp_path / "rejects.jsonl"
        read_jsonl(path, policy=IngestPolicy(
            mode="quarantine", quarantine_path=sink))
        assert not sink.exists()


class TestCsv:
    def test_lenient_skips_bad_values(self, tmp_path):
        path = tmp_path / "logs.csv"
        write_csv(_records(5), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("oops,SelectMail,not-a-number,u1,business,true,0\n")
        logs = read_csv(
            path, policy=IngestPolicy(mode="lenient", max_bad_share=0.5)
        )
        assert len(logs) == 5
        assert logs.n_skipped_rows == 1

    def test_missing_header_column_always_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,action\n1.0,SelectMail\n")
        for policy in (None, IngestPolicy(mode="lenient", max_bad_share=1.0)):
            with pytest.raises(SchemaError):
                read_csv(path, policy=policy)


class TestQualityIntegration:
    def test_quality_report_surfaces_ingest(self, dirty_jsonl):
        logs = read_jsonl(
            dirty_jsonl, policy=IngestPolicy(mode="lenient", max_bad_share=0.5)
        )
        report = quality_report(logs)
        assert report.ingest is logs.ingest_report
        messages = [f.message for f in report.flags]
        assert any("rejected" in m for m in messages)

    def test_in_memory_store_has_no_report(self):
        logs = LogStore.from_records(_records())
        assert logs.ingest_report is None
        assert logs.n_skipped_rows == 0


class TestQuarantineAtomicity:
    """The crash-safety contract of the quarantine sink (PR 4)."""

    def _sink(self, dirty_jsonl, tmp_path):
        sink = tmp_path / "rejects.jsonl"
        policy = IngestPolicy(
            mode="quarantine", max_bad_share=0.5, quarantine_path=sink
        )
        read_jsonl(dirty_jsonl, policy=policy)
        return sink

    def test_each_record_lands_in_one_write(self, dirty_jsonl, tmp_path,
                                            monkeypatch):
        import os as _os

        from repro.telemetry import ingest as ingest_mod

        writes = []
        real_write = _os.write

        def spy(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(ingest_mod.os, "write", spy)
        self._sink(dirty_jsonl, tmp_path)
        assert len(writes) == 3  # one write per quarantined row
        for chunk in writes:
            assert chunk.endswith(b"\n")
            json.loads(chunk)  # each write is one complete JSON line

    def test_read_quarantine_round_trips_a_clean_file(self, dirty_jsonl,
                                                      tmp_path):
        from repro.telemetry import read_quarantine

        sink = self._sink(dirty_jsonl, tmp_path)
        records = read_quarantine(sink)
        assert [r["reason"] for r in records] == [
            "json-decode", "non-finite", "schema",
        ]

    def test_torn_trailing_record_is_dropped(self, dirty_jsonl, tmp_path):
        from repro.telemetry import read_quarantine

        sink = self._sink(dirty_jsonl, tmp_path)
        # Simulate the writer dying mid-final-record: truncate the file
        # inside the last line.
        raw = sink.read_bytes()
        sink.write_bytes(raw[: len(raw) - 20])
        records = read_quarantine(sink)
        assert len(records) == 2  # only the torn trailing record is lost
        assert [r["reason"] for r in records] == ["json-decode", "non-finite"]

    def test_mid_file_tear_is_fatal(self, dirty_jsonl, tmp_path):
        from repro.telemetry import read_quarantine

        sink = self._sink(dirty_jsonl, tmp_path)
        lines = sink.read_text().splitlines()
        lines[1] = lines[1][:10]  # tear a NON-trailing record
        sink.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError):
            read_quarantine(sink)

    def test_torn_sink_does_not_poison_reingestion(self, dirty_jsonl,
                                                   tmp_path):
        from repro.telemetry import read_quarantine

        sink = self._sink(dirty_jsonl, tmp_path)
        raw = sink.read_bytes()
        sink.write_bytes(raw[: len(raw) - 5])
        # Surviving quarantined rows can still be inspected and the
        # original source re-read through a fresh quarantine pass.
        survivors = read_quarantine(sink)
        assert all("raw" in r for r in survivors)
        logs = read_jsonl(dirty_jsonl, policy=IngestPolicy(
            mode="quarantine", max_bad_share=0.5, quarantine_path=sink
        ))
        assert len(logs) == 20
        assert len(read_quarantine(sink)) == 3  # sink rewritten whole
