"""The obs HTTP server: endpoints, verdict codes, and tracker hygiene."""

import json
import threading
import urllib.error
import urllib.request
from collections import Counter

import pytest

import repro.obs as obs
from repro.obs.health import load_health_report
from repro.obs.metrics import load_metrics_prometheus
from repro.obs.probes import HealthFinding, emit
from repro.obs.progress import load_progress
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

    def test_progress_reflects_reported_stages(self, server):
        obs.report_progress("sweep", total=4)
        obs.report_progress("sweep", done=1)
        status, body = _get(server.url + "/progress")
        assert status == 200
        snap = json.loads(body)
        assert snap["run_id"] == "serve-test"
        assert snap["stages"]["sweep"]["done"] == 1
        assert snap["stages"]["sweep"]["total"] == 4

    def test_progress_reads_spans_from_the_tracer(self, server):
        with obs.span("alpha", slot=1):
            _, body = _get(server.url + "/progress")
            assert json.loads(body)["current"] == "/alpha"
        _, body = _get(server.url + "/progress")
        snap = json.loads(body)
        assert snap["spans"] == {"alpha": 1}
        assert snap["current"] is None

    def test_unknown_route_is_404(self, server):
        for route in ("/nope", "/events"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + route)
            assert excinfo.value.code == 404, route

    @pytest.mark.parametrize("route", ["/slo", "/trend"])
    def test_watch_routes_404_without_a_runs_dir(self, server, route):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + route)
        assert excinfo.value.code == 404


class TestLifecycle:
    def test_start_installs_and_close_uninstalls_the_tracker(self):
        with obs.session(enabled=True, run_id="lifecycle") as ctx:
            assert ctx.progress is None
            srv = ObsServer("127.0.0.1", 0).start()
            assert ctx.progress is srv.tracker
            host, port = srv.address
            assert port != 0  # ephemeral bind resolved
            srv.close()
            assert ctx.progress is None
            obs.report_progress("s", total=1)  # no tracker: a no-op
            assert srv.tracker.snapshot()["stages"] == {}
            srv.close()  # idempotent

    def test_tracker_survives_close_for_final_persistence(self):
        with obs.session(enabled=True, run_id="persist"):
            srv = ObsServer("127.0.0.1", 0).start()
            obs.report_progress("s", total=2)
            obs.report_progress("s", done=2)
            srv.close()
            srv.tracker.finish("done")
            snap = srv.tracker.snapshot()
            assert snap["state"] == "done"
            assert snap["stages"]["s"]["done"] == 2


class TestServedSweep:
    """Serving a sweep changes no byte, and its final progress is complete."""

    @pytest.fixture(scope="class")
    def logs(self):
        from repro.workload import owa_scenario

        return owa_scenario(seed=3, duration_days=2.0, n_users=40).generate().logs

    def _sweep(self, logs, backend, served):
        from repro.analysis.sensitivity import run_sensitivity_suite
        from repro.core import AutoSens

        with obs.session(enabled=True, deterministic=True,
                         run_id="sweep") as ctx:
            srv = ObsServer("127.0.0.1", 0).start() if served else None
            try:
                # The curve sweep feeds findings and many spans; the
                # sensitivity twins map through the executor on both
                # backends, so each run has at least one stage.
                AutoSens(executor=backend).curves_by_action(logs)
                run_sensitivity_suite(["user-skew-mild"], executor=backend)
                frame = (json.loads(_get(srv.url + "/progress")[1])
                         if served else None)
            finally:
                if srv is not None:
                    srv.close()
            return (ctx.tracer.finished(), ctx.metrics.render_prometheus(),
                    list(ctx.findings)), frame

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_serving_changes_no_byte_and_progress_is_complete(
            self, logs, backend):
        plain, _ = self._sweep(logs, backend, served=False)
        served, frame = self._sweep(logs, backend, served=True)
        assert served == plain
        records, _, findings = served
        assert findings
        tasks = Counter(r["attrs"]["task"] for r in records
                        if r["name"] == "task")
        if backend == "serial":
            # The serial sweep runs its curves inline, without task spans,
            # and reports one _curve_task per task of each sweep.
            assert "_curve_task" not in tasks
            tasks["_curve_task"] = sum(r["attrs"]["n_tasks"] for r in records
                                       if r["name"] == "sweep")
        assert tasks["_curve_task"] > 0
        assert {name: (stage["done"], stage["total"])
                for name, stage in frame["stages"].items()} == {
            name: (n, n) for name, n in tasks.items()}
        assert frame["spans"] == {
            name: entry["count"] for name, entry
            in obs.aggregate_span_timings(records).items()}


class TestMidRunScrape:
    """What a live scrape sees while a run is still going.

    The sweep's first curve finishes, then the run blocks on an event until
    a scraper has fetched and validated ``/metrics`` (which must already
    hold an ``autosens`` metric family), ``/progress`` and ``/healthz``. No
    scrape can race the end of the run.
    """

    def test_scrapes_mid_run_see_live_state(self, tmp_path, monkeypatch):
        from repro.core import AutoSens
        from repro.workload import owa_scenario

        logs = owa_scenario(seed=3, duration_days=2.0,
                            n_users=40).generate().logs
        mid_run, scraped = threading.Event(), threading.Event()
        seen = {}

        def scrape(url):
            try:
                mid_run.wait(timeout=60)
                _, text = _get(url + "/metrics")
                (tmp_path / "mid.prom").write_text(text)
                seen["families"] = [line for line in text.splitlines()
                                    if line.startswith("# TYPE autosens")]
                seen["metrics"] = load_metrics_prometheus(tmp_path / "mid.prom")
                seen["progress"] = load_progress(
                    json.loads(_get(url + "/progress")[1]))
                try:
                    status, body = _get(url + "/healthz")
                except urllib.error.HTTPError as exc:  # 503 on a fail verdict
                    status, body = exc.code, exc.read().decode("utf-8")
                seen["health"] = (status, load_health_report(json.loads(body)))
            except Exception as exc:  # re-raised by the test thread
                seen["error"] = exc
            finally:
                scraped.set()

        original = AutoSens.preference_curve
        finished = []

        def curve_then_wait(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            finished.append(1)
            if len(finished) == 1:
                mid_run.set()
                seen["waited"] = scraped.wait(timeout=60)
            return result

        monkeypatch.setattr(AutoSens, "preference_curve", curve_then_wait)
        with obs.session(enabled=True, deterministic=True, run_id="mid-run"):
            with ObsServer("127.0.0.1", 0) as srv:
                scraper = threading.Thread(target=scrape, args=(srv.url,))
                scraper.start()
                curves = AutoSens().curves_by_action(logs)
                scraper.join(timeout=60)

        assert not scraper.is_alive()
        if "error" in seen:
            raise seen["error"]
        assert seen["waited"] and len(curves) == len(finished) > 1
        assert seen["families"] and seen["metrics"]
        progress = seen["progress"]
        assert progress["run_id"] == "mid-run"
        stage = progress["stages"]["_curve_task"]
        assert stage["done"] < stage["total"] == len(curves)
        status, report = seen["health"]
        assert status == (503 if report.verdict == "fail" else 200)
        assert report.findings
