"""The obs HTTP server: endpoints, verdict codes, and bus hygiene."""

import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.obs as obs
from repro.obs.probes import HealthFinding, emit
from repro.obs.serve import ObsServer, parse_serve_addr


class TestParseServeAddr:
    def test_host_port(self):
        assert parse_serve_addr("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_bare_port_binds_localhost(self):
        assert parse_serve_addr("9100") == ("127.0.0.1", 9100)

    def test_port_zero_is_allowed(self):
        assert parse_serve_addr("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["host:abc", "host:", "", "host:70000"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_serve_addr(bad)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture()
def server():
    with obs.session(enabled=True, deterministic=True, run_id="serve-test"):
        srv = ObsServer("127.0.0.1", 0).start()
        try:
            yield srv
        finally:
            srv.close()


class TestEndpoints:
    def test_metrics_serves_live_prometheus_text(self, server):
        obs.inc("autosens_live_total", 2.0, outcome="hit")
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert "# TYPE autosens_live_total counter" in body
        assert 'autosens_live_total{outcome="hit"} 2' in body

    def test_healthz_is_200_while_ok_or_warn(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["verdict"] == "ok"
        emit([HealthFinding(
            probe="density", stage="alpha", severity="warn", message="low")])
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["verdict"] == "warn"

    def test_healthz_is_503_on_fail(self, server):
        emit([HealthFinding(
            probe="support", stage="alpha", severity="fail", message="gone")])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/healthz")
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["verdict"] == "fail"

    def test_progress_reflects_stage_events(self, server):
        obs.event("run", phase="start", run_id="serve-test")
        obs.event("stage", stage="sweep", total=4)
        obs.event("tasks", stage="sweep", done=1)
        status, body = _get(server.url + "/progress")
        assert status == 200
        snap = json.loads(body)
        assert snap["run_id"] == "serve-test"
        assert snap["stages"]["sweep"]["done"] == 1
        assert snap["stages"]["sweep"]["total"] == 4

    def test_events_tail_is_ndjson_with_since_filter(self, server):
        for i in range(5):
            obs.event("tasks", stage="s", done=1)
        status, body = _get(server.url + "/events?n=3")
        events = [json.loads(line) for line in body.splitlines()]
        assert status == 200
        assert len(events) == 3
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        _, body = _get(f"{server.url}/events?since={seqs[-1]}")
        assert body == ""

    def test_spans_flow_to_the_live_stream(self, server):
        with obs.span("alpha", slot=1):
            pass
        _, body = _get(server.url + "/events?n=100")
        types = [json.loads(line)["type"] for line in body.splitlines()]
        assert "span_open" in types and "span_close" in types

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("route", ["/slo", "/trend"])
    def test_watch_routes_404_without_a_runs_dir(self, server, route):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + route)
        assert excinfo.value.code == 404


class TestWatchEndpoints:
    """A server wired to a registry serves fleet SLO and trend verdicts."""

    GOLDEN = Path(__file__).parent / "golden" / "registry"

    def _server(self, runs_dir):
        return ObsServer("127.0.0.1", 0, runs_dir=str(runs_dir)).start()

    def test_slo_is_200_when_the_fleet_is_healthy(self):
        with obs.session(enabled=True, run_id="watch-clean"):
            srv = self._server(self.GOLDEN / "clean")
            try:
                status, body = _get(srv.url + "/slo")
            finally:
                srv.close()
        payload = json.loads(body)
        assert status == 200
        assert payload["kind"] == "watch-slo"
        assert payload["met"] is True
        assert payload["breaches"] == []

    def test_slo_is_503_on_a_breach_and_names_the_series(self):
        with obs.session(enabled=True, run_id="watch-stepped"):
            srv = self._server(self.GOLDEN / "stepped")
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(srv.url + "/slo")
                assert excinfo.value.code == 503
                payload = json.loads(excinfo.value.read().decode("utf-8"))
            finally:
                srv.close()
        assert payload["met"] is False
        assert any(b["series"] == "span_seconds[preference_compute]"
                   for b in payload["breaches"])

    def test_trend_serves_per_series_change_points(self):
        with obs.session(enabled=True, run_id="watch-trend"):
            srv = self._server(self.GOLDEN / "stepped")
            try:
                status, body = _get(srv.url + "/trend")
            finally:
                srv.close()
        payload = json.loads(body)
        assert status == 200
        assert payload["kind"] == "watch-trend"
        moved = payload["series"]["span_seconds[preference_compute]"]
        assert moved["state"] == "stepped"
        assert moved["change_seq"] == 6

    def test_empty_registry_serves_a_trivially_met_verdict(self, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "index.jsonl").write_text("", encoding="utf-8")
        with obs.session(enabled=True, run_id="watch-empty"):
            srv = self._server(runs_dir)
            try:
                status, body = _get(srv.url + "/slo")
            finally:
                srv.close()
        payload = json.loads(body)
        assert status == 200
        assert payload["met"] is True
        assert payload["note"] == "empty-registry"


class TestLifecycle:
    def test_start_attaches_and_close_detaches(self):
        with obs.session(enabled=True, run_id="lifecycle"):
            assert not obs.events_active()
            srv = ObsServer("127.0.0.1", 0).start()
            assert obs.events_active()
            host, port = srv.address
            assert port != 0  # ephemeral bind resolved
            srv.close()
            assert not obs.events_active()
            srv.close()  # idempotent

    def test_tracker_survives_close_for_final_persistence(self):
        with obs.session(enabled=True, run_id="persist"):
            srv = ObsServer("127.0.0.1", 0).start()
            obs.event("stage", stage="s", total=2)
            obs.event("tasks", stage="s", done=2)
            srv.close()
            srv.tracker.finish("done")
            snap = srv.tracker.snapshot()
            assert snap["state"] == "done"
            assert snap["stages"]["s"]["done"] == 2
