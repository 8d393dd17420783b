"""Scrapeable observability server: ``/metrics``, ``/healthz``, ``/progress``.

Stdlib-only (:class:`http.server.ThreadingHTTPServer` on a daemon thread),
started by the CLI when ``--serve-obs HOST:PORT`` is passed. The server is
a pull-only *reader* of state the run already keeps on the active
:class:`~repro.obs._runtime.ObsContext`:

``/metrics``
    Live Prometheus text from the active :class:`MetricsRegistry` (the same
    renderer behind ``--metrics-out``), with supervisor gauges refreshed
    just before each scrape.
``/healthz``
    The rolling estimator-health verdict — HTTP 200 for ``ok``/``warn``,
    503 for ``fail`` — with the full report as a JSON body.
``/progress``
    The :class:`~repro.obs.progress.ProgressTracker` snapshot as JSON
    (per-stage completed/total, EWMA throughput, ETA, and span counts read
    from the tracer).

Fleet verdicts over recorded history are ``autosens watch <runs-dir>``'s
job, not the live server's.

Determinism contract: the server installs one progress tracker on the
context and *never* writes to the tracer, the metrics registry (beyond the
explicit pre-scrape supervisor gauge refresh, which is itself skipped for
deterministic runs), or any RNG — artifacts from a served run are
byte-identical to an unserved one.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import urlparse

import repro.obs as obs
from repro.obs.progress import ProgressTracker

__all__ = ["ObsServer", "parse_serve_addr"]


def parse_serve_addr(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; bare ``PORT`` binds localhost.

    Port 0 is allowed (ephemeral bind — the chosen port is reported by
    :attr:`ObsServer.address`), which is what tests use.
    """
    spec = spec.strip()
    host, sep, port_s = spec.rpartition(":")
    if not sep:
        host, port_s = "127.0.0.1", spec
    host = host or "127.0.0.1"
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"invalid --serve-obs address {spec!r}: "
                         "expected HOST:PORT") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid --serve-obs port {port}")
    return host, port


def _refresh_supervisor_gauges() -> None:
    """Re-export live supervisor gauges so a scrape sees current values.

    Lazy import: the runtime package imports :mod:`repro.obs`, so the
    dependency must point this way only at call time. Deterministic runs
    skip the refresh — their gauge values are part of the artifact
    contract and must not vary with scrape timing.
    """
    if obs.current().deterministic:
        return
    try:
        from repro.runtime.supervisor import active_supervisor
    except Exception:
        return
    supervisor = active_supervisor()
    if supervisor is not None:
        try:
            supervisor.export_gauges()
        except Exception:
            pass


class _Handler(BaseHTTPRequestHandler):
    server_version = "autosens-obs/1"

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes must not spam the run's stderr.
        pass

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        route = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._serve_metrics()
            elif route == "/healthz":
                self._serve_healthz()
            elif route == "/progress":
                self._serve_progress()
            elif route == "/":
                self._serve_index()
            else:
                self._send(404, "text/plain; charset=utf-8",
                           b"not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # a scrape must never kill the run
            try:
                self._send(500, "text/plain; charset=utf-8",
                           f"error: {exc}\n".encode("utf-8"))
            except Exception:
                pass

    # -- endpoints -----------------------------------------------------------

    def _serve_index(self) -> None:
        body = ("autosens obs server\n"
                "endpoints: /metrics /healthz /progress\n")
        self._send(200, "text/plain; charset=utf-8", body.encode("utf-8"))

    def _serve_metrics(self) -> None:
        _refresh_supervisor_gauges()
        registry = obs.metrics()
        # The pipeline thread may add a series mid-render; rendering is
        # read-only, so just retry on the dict-mutation race.
        text = ""
        for _ in range(5):
            try:
                text = registry.render_prometheus()
                break
            except RuntimeError:
                continue
        self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                   text.encode("utf-8"))

    def _serve_healthz(self) -> None:
        report = obs.build_health_report()
        status = 503 if report.verdict == "fail" else 200
        body = json.dumps(report.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        self._send(status, "application/json", body.encode("utf-8"))

    def _serve_progress(self) -> None:
        tracker: ProgressTracker = self.server.obs_tracker  # type: ignore[attr-defined]
        body = json.dumps(tracker.snapshot(), sort_keys=True) + "\n"
        self._send(200, "application/json", body.encode("utf-8"))

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ObsServer:
    """The live telemetry endpoint for one run.

    ``start()`` installs a progress tracker reading the active context's
    tracer and begins serving on a daemon thread; ``close()`` uninstalls
    the tracker and writes nothing. The tracker outlives ``close()`` so
    the CLI can persist a final ``progress.json`` into the run registry.
    """

    def __init__(self, host: str, port: int) -> None:
        self._requested = (host, port)
        self.tracker = ProgressTracker()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ctx: Optional[Any] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 to the real port."""
        if self._server is not None:
            addr = self._server.server_address
            return str(addr[0]), int(addr[1])
        return self._requested

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObsServer":
        host, port = self._requested
        server = ThreadingHTTPServer((host, port), _Handler)
        server.daemon_threads = True
        server.obs_tracker = self.tracker  # type: ignore[attr-defined]
        self._server = server
        self._ctx = obs.current()
        self.tracker.tracer = self._ctx.tracer
        self.tracker.run_id = self._ctx.run_id
        self._ctx.progress = self.tracker
        thread = threading.Thread(target=server.serve_forever,
                                  name="autosens-obs-serve", daemon=True)
        thread.start()
        self._thread = thread
        return self

    def close(self) -> None:
        """Stop serving and uninstall the tracker (idempotent)."""
        if self._ctx is not None:
            if self._ctx.progress is self.tracker:
                self._ctx.progress = None
            self._ctx = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
