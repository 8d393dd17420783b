"""Span profiling: attribution correctness and the identity guarantee.

The load-bearing property: attaching a :class:`SpanProfiler` to the tracer
must not perturb a single byte of the trace — profiling reads its own
clocks and never touches span records, so deterministic artifacts stay
deterministic whether profiling is on or off.
"""

import time

import pytest

import repro.obs as obs
from repro.errors import SchemaError
from repro.obs.profile import (
    SpanProfiler,
    build_profile,
    folded_from_spans,
    load_profile,
    top_by_self_time,
    write_profile,
)


def _spin(seconds):
    """Burn CPU (not sleep) so process_time moves."""
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        sum(range(500))


class TestSpanProfiler:
    def test_self_time_excludes_children(self):
        profiler = SpanProfiler()
        profiler.on_enter("outer")
        profiler.on_enter("inner")
        _spin(0.02)
        profiler.on_exit("inner")
        profiler.on_exit("outer")
        spans = profiler.snapshot()
        assert spans["inner"]["cpu_self_s"] == pytest.approx(
            spans["inner"]["cpu_total_s"], rel=0.05)
        # The outer span did nothing itself: all its time is the child's.
        assert spans["outer"]["cpu_self_s"] < spans["inner"]["cpu_self_s"]
        assert spans["outer"]["cpu_total_s"] >= spans["inner"]["cpu_total_s"]

    def test_out_of_order_exit_folds_into_parent(self):
        profiler = SpanProfiler()
        profiler.on_enter("outer")
        profiler.on_enter("dangling")
        profiler.on_exit("outer")  # pops through the unmatched frame
        profiler.on_exit("phantom")  # no matching frame at all: ignored
        spans = profiler.snapshot()
        assert set(spans) == {"outer"}
        assert spans["outer"]["count"] == 1

    def test_repeated_spans_accumulate(self):
        profiler = SpanProfiler()
        for _ in range(3):
            profiler.on_enter("stage")
            profiler.on_exit("stage")
        assert profiler.snapshot()["stage"]["count"] == 3

    def test_rss_attribution_is_positive_on_posix(self):
        profiler = SpanProfiler()
        profiler.on_enter("s")
        profiler.on_exit("s")
        assert profiler.snapshot()["s"]["rss_peak_kb"] > 0


class TestTracerIdentity:
    def test_trace_records_identical_with_and_without_profiler(self):
        def run(profile):
            with obs.session(enabled=True, deterministic=True):
                if profile:
                    obs.current().tracer.profiler = SpanProfiler()
                with obs.span("experiment", key="experiment:x:1"):
                    with obs.span("stage", n=3):
                        pass
                    with obs.span("stage", n=4):
                        pass
                return obs.trace_records()

        assert run(profile=False) == run(profile=True)

    def test_configure_profile_flag_installs_the_hook(self):
        with obs.session(enabled=True):
            assert obs.profiler() is None
        obs.configure(trace=True, profile=True)
        try:
            assert isinstance(obs.profiler(), SpanProfiler)
            with obs.span("probed"):
                pass
            assert "probed" in obs.profiler().spans
        finally:
            obs.disable()

    def test_profiler_is_none_when_disabled(self):
        assert obs.profiler() is None


class TestFoldedAndTop:
    def test_top_orders_by_self_time_with_name_tiebreak(self):
        snapshot = {
            "b": {"count": 1, "cpu_self_s": 0.5, "cpu_total_s": 0.5,
                  "wall_s": 0.5, "rss_peak_kb": 1.0},
            "a": {"count": 1, "cpu_self_s": 0.5, "cpu_total_s": 0.5,
                  "wall_s": 0.5, "rss_peak_kb": 1.0},
            "c": {"count": 1, "cpu_self_s": 0.9, "cpu_total_s": 0.9,
                  "wall_s": 0.9, "rss_peak_kb": 1.0},
        }
        assert [r["span"] for r in top_by_self_time(snapshot)] == ["c", "a", "b"]
        assert [r["span"] for r in top_by_self_time(snapshot, limit=1)] == ["c"]

    def test_folded_from_spans_uses_trace_paths(self):
        snapshot = {
            "inner": {"count": 1, "cpu_self_s": 0.013, "cpu_total_s": 0.013,
                      "wall_s": 0.013, "rss_peak_kb": 1.0},
        }
        records = [
            {"path": "/outer/inner", "name": "inner", "dur_us": 13000},
        ]
        assert folded_from_spans(snapshot, records) == ["outer;inner 13"]

    def test_folded_falls_back_to_flat_names(self):
        snapshot = {
            "solo": {"count": 1, "cpu_self_s": 0.002, "cpu_total_s": 0.002,
                     "wall_s": 0.002, "rss_peak_kb": 1.0},
        }
        assert folded_from_spans(snapshot, records=None) == ["solo 2"]


class TestArtifact:
    def test_build_write_load_roundtrip(self, tmp_path):
        profiler = SpanProfiler()
        profiler.on_enter("s")
        profiler.on_exit("s")
        payload = build_profile(profiler, run_id="abc123")
        path = write_profile(payload, tmp_path / "profile.json")
        loaded = load_profile(path)
        assert loaded == payload
        assert loaded["run_id"] == "abc123"
        assert loaded["spans"]["s"]["count"] == 1
        assert loaded["top"][0]["span"] == "s"

    def test_build_with_no_collectors_is_empty_but_valid(self):
        payload = build_profile(None)
        assert payload["spans"] == {}
        assert payload["top"] == []
        assert payload["folded_spans"] == []
        assert set(payload) == {"schema", "run_id", "spans", "top",
                                "folded_spans"}

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 42}')
        with pytest.raises(SchemaError):
            load_profile(bad)
