"""The event bus: bounded sinks, drop accounting, and the free no-sink path."""

import json

import pytest

import repro.obs as obs
from repro.obs import EVENT_TYPES, EventBus, EventSink, event_lines


class TestEventSink:
    def test_offer_and_tail(self):
        sink = EventSink(maxlen=10)
        for i in range(3):
            sink.offer({"seq": i + 1, "type": "metric"})
        assert len(sink) == 3
        assert [e["seq"] for e in sink.tail()] == [1, 2, 3]
        assert [e["seq"] for e in sink.tail(n=2)] == [2, 3]
        assert [e["seq"] for e in sink.tail(since_seq=2)] == [3]

    def test_bounded_drops_oldest_and_counts(self):
        sink = EventSink(maxlen=4)
        for i in range(7):
            sink.offer({"seq": i + 1, "type": "metric"})
        assert len(sink) == 4
        assert sink.dropped == 3
        # A live tail wants the freshest events, not the oldest.
        assert [e["seq"] for e in sink.tail()] == [4, 5, 6, 7]

    def test_drain_empties_without_touching_drop_count(self):
        sink = EventSink(maxlen=2)
        for i in range(3):
            sink.offer({"seq": i + 1})
        drained = sink.drain()
        assert len(drained) == 2
        assert len(sink) == 0
        assert sink.dropped == 1


class TestEventBus:
    def test_no_sink_publish_is_free(self):
        bus = EventBus()
        for _ in range(5):
            bus.publish("metric", metric="x", delta=1.0)
        assert not bus.active
        assert bus.published == 0
        assert bus.seq == 0
        assert bus.stats() == {"sinks": 0, "published": 0, "dropped": 0,
                               "sink_errors": 0}

    def test_publish_stamps_seq_ts_type(self):
        bus = EventBus()
        sink = bus.attach(EventSink())
        bus.publish("stage", stage="sweep", total=8)
        bus.publish("tasks", stage="sweep", done=2)
        events = sink.tail()
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["type"] for e in events] == ["stage", "tasks"]
        assert all(isinstance(e["ts"], float) for e in events)
        assert events[0]["total"] == 8

    def test_detach_restores_the_free_path(self):
        bus = EventBus()
        sink = bus.attach(EventSink())
        bus.publish("run", phase="start")
        bus.detach(sink)
        assert not bus.active
        bus.publish("run", phase="done")
        assert bus.published == 1

    def test_broken_sink_is_counted_not_propagated(self):
        class Broken:
            def offer(self, event):
                raise RuntimeError("boom")

        bus = EventBus()
        bus.attach(Broken())
        good = bus.attach(EventSink())
        bus.publish("finding", probe="p")
        assert bus.sink_errors == 1
        assert len(good.tail()) == 1

    def test_dropped_sums_over_sinks(self):
        bus = EventBus()
        bus.attach(EventSink(maxlen=1))
        bus.attach(EventSink(maxlen=2))
        for _ in range(3):
            bus.publish("metric", metric="x")
        assert bus.dropped() == (3 - 1) + (3 - 2)


class TestEventLines:
    def test_lines_are_sorted_compact_ndjson_with_schema(self):
        lines = list(event_lines([
            {"seq": 1, "ts": 1.0, "type": "run", "phase": "start"},
        ]))
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["schema"] == 1
        assert list(payload) == sorted(payload)
        assert "\n" not in lines[0]

    def test_unjsonable_payloads_are_coerced(self):
        lines = list(event_lines([{"seq": 1, "type": "metric",
                                   "value": {1, 2}}]))
        json.loads(lines[0])  # must not raise


class TestFacade:
    def test_disabled_context_publishes_nothing(self):
        assert not obs.events_active()
        obs.event("run", phase="start")
        assert obs.current().bus.published == 0

    def test_enabled_without_sink_stays_inert(self):
        with obs.session(enabled=True):
            assert not obs.events_active()
            obs.event("run", phase="start")
            obs.inc("autosens_x_total")
            assert obs.current().bus.published == 0

    def test_attach_wires_the_tracer_listener(self):
        with obs.session(enabled=True, deterministic=True) as ctx:
            sink = obs.attach_sink(EventSink())
            assert obs.events_active()
            assert ctx.tracer.listener is ctx.bus
            with obs.span("alpha", slot=3):
                pass
            obs.detach_sink(sink)
            assert ctx.tracer.listener is None
            types = [e["type"] for e in sink.tail()]
            assert types == ["span_open", "span_close"]
            close = sink.tail()[-1]
            assert close["name"] == "alpha"
            assert close["attrs"] == {"slot": 3}
            assert close["dur_us"] >= 0

    def test_metric_finding_degradation_events_flow(self):
        from repro.obs.probes import HealthFinding, emit

        with obs.session(enabled=True):
            sink = obs.attach_sink(EventSink())
            obs.inc("autosens_x_total", 2.0, outcome="hit")
            obs.observe("autosens_x_s", 0.5)
            obs.set_gauge("autosens_x_g", 7.0)
            obs.record_degradation("starved_slice", slice="a")
            emit([HealthFinding(
                probe="density", stage="alpha", severity="warn",
                message="low")])
            types = [e["type"] for e in sink.tail()]
            assert types == ["metric", "metric", "metric", "degradation",
                            "finding"]
            kinds = [e.get("kind") for e in sink.tail() if e["type"] == "metric"]
            assert kinds == ["counter", "histogram", "gauge"]
            assert all(t in EVENT_TYPES for t in types)

    def test_all_published_types_are_in_the_vocabulary(self):
        # The closed vocabulary is what load_events (validate_obs --events)
        # checks against.
        assert set(EVENT_TYPES) == {
            "span_open", "span_close", "metric", "finding", "degradation",
            "supervisor", "stage", "tasks", "run", "slo"}


class TestNoSinkIdentity:
    """With the bus compiled in but unattached, artifacts must not move."""

    def _run_workload(self):
        from repro.parallel import SerialExecutor

        executor = SerialExecutor()
        with obs.span("sweep"):
            out = executor.map_ordered(_square, [1, 2, 3])
        obs.inc("autosens_sweep_total", 3.0)
        return out

    def test_sink_attached_run_matches_unattached_run(self):
        with obs.session(enabled=True, deterministic=True, run_id="r"):
            baseline_out = self._run_workload()
            baseline_records = obs.trace_records()
            baseline_metrics = obs.metrics().snapshot()
        with obs.session(enabled=True, deterministic=True, run_id="r"):
            sink = obs.attach_sink(EventSink())
            live_out = self._run_workload()
            live_records = obs.trace_records()
            live_metrics = obs.metrics().snapshot()
            assert sink.tail()  # the live stream did observe the run
        assert live_out == baseline_out
        assert live_records == baseline_records
        assert live_metrics == baseline_metrics

    def test_slow_sink_drops_are_counted_not_blocking(self):
        with obs.session(enabled=True, deterministic=True):
            sink = obs.attach_sink(EventSink(maxlen=4))
            for _ in range(6):
                with obs.span("alpha"):
                    pass
            # 12 span events through a 4-slot ring: the run never stalled,
            # the loss is explicit.
            assert sink.dropped == 8
            assert obs.current().bus.stats()["dropped"] == 8


class TestFindingEvents:
    """Probe findings from a real sweep reach the live stream."""

    def _sweep(self, logs, sink=None):
        from repro.core import AutoSens

        with obs.session(enabled=True, deterministic=True, run_id="r") as ctx:
            if sink is not None:
                obs.attach_sink(sink)
            AutoSens().curves_by_action(logs)
            return list(ctx.findings), ctx.metrics.snapshot()

    def test_one_finding_event_per_recorded_finding(self):
        from repro.workload import owa_scenario

        logs = owa_scenario(seed=3, duration_days=2.0, n_users=40).generate().logs
        sink = EventSink()
        findings, metrics = self._sweep(logs, sink)
        events = [e for e in sink.tail() if e["type"] == "finding"]
        assert findings
        assert sink.dropped == 0
        assert [(e["probe"], e["stage"], e["severity"], e["message"])
                for e in events] == [
            (f["probe"], f["stage"], f["severity"], f["message"])
            for f in findings]
        # Publishing changes nothing the run records.
        assert self._sweep(logs) == (findings, metrics)


def _square(x):
    return x * x
