"""The disabled path must be allocation-free and side-effect-free.

This is the acceptance property "near-free when disabled": with the default
context installed, ``obs.span`` hands back the *shared* no-op singleton
(identity-checked — a fresh object per call would mean per-call garbage on
every hot loop), counters never materialize a registry entry, and the
instrumented executors take their untraced fast path.
"""

import repro.obs as obs
from repro.obs import NOOP_SPAN
from repro.parallel import SerialExecutor


class TestNoopSpan:
    def test_span_returns_the_shared_singleton(self):
        assert obs.span("a") is NOOP_SPAN
        assert obs.span("b", key="k", heavy="attr") is NOOP_SPAN

    def test_singleton_is_reusable_and_inert(self):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert outer is inner is NOOP_SPAN
        assert NOOP_SPAN.set(x=1) is NOOP_SPAN
        assert NOOP_SPAN.duration_s == 0.0
        assert obs.trace_records() == []

    def test_noop_span_holds_no_state(self):
        assert not hasattr(NOOP_SPAN, "__dict__")


class TestNoopMetrics:
    def test_disabled_writes_never_create_series(self):
        obs.inc("autosens_should_not_exist", outcome="hit")
        obs.set_gauge("autosens_should_not_exist_g", 1.0)
        obs.record_degradation("should_not_exist")
        assert len(obs.metrics()) == 0
        assert obs.current().degradations == []

    def test_enabled_then_disabled_is_clean(self):
        with obs.session(enabled=True):
            obs.inc("x")
            assert len(obs.metrics()) == 1
        assert len(obs.metrics()) == 0


class TestNoopHealthAndProfile:
    def test_disabled_findings_are_swallowed(self):
        from repro.obs.probes import probe_density_correlation, emit

        emit(probe_density_correlation(-0.5))
        assert obs.findings() == []

    def test_disabled_context_has_no_profiler(self):
        assert obs.profiler() is None
        report = obs.build_health_report()
        assert report.verdict == "ok"
        assert report.findings == []


class TestNoopExecutor:
    def test_serial_map_produces_no_spans_when_disabled(self):
        assert not obs.enabled()
        result = SerialExecutor().map_ordered(lambda x: x * 2, [1, 2, 3])
        assert result == [2, 4, 6]
        assert obs.trace_records() == []


class TestNoopProgress:
    """Progress reports are compiled into the executors but cost ~nothing
    until a live server installs a tracker."""

    def test_disabled_context_has_no_tracker(self):
        obs.report_progress("s", total=3, done=1)
        assert obs.current().progress is None

    def test_enabled_context_without_a_server_has_no_tracker(self):
        with obs.session(enabled=True):
            with obs.span("alpha"):
                obs.report_progress("s", total=3, done=1)
            assert obs.current().progress is None

    def test_executor_run_without_a_server_installs_nothing(self):
        with obs.session(enabled=True):
            assert SerialExecutor().map_ordered(_double, [1, 2, 3]) == [2, 4, 6]
            assert obs.current().progress is None


def _double(x):
    return 2 * x
