"""The live telemetry plane: an HTTP front door beside the serving loop.

:class:`LiveServeServer` runs a stdlib :class:`ThreadingHTTPServer` on a
daemon thread next to a :class:`~repro.serve.loop.ServeLoop`, turning
the passive exporters into a queryable, drivable ops surface:

* ``GET /metrics`` — the serving Prometheus document for the loop's
  *current* state (:func:`~repro.obs.export.serve_prometheus` over a
  non-destructive snapshot), with the SLO burn/budget gauges.
* ``GET /healthz`` — mirrors the :class:`HealthMonitor`: 200 while
  HEALTHY or DEGRADED (the loop is still serving), 503 while FLAPPING
  (reconfiguration is paused and a load balancer should back off).
* ``GET /slo`` — the full per-tenant objective status as JSON
  (:meth:`SloEngine.status`).
* ``GET /report`` — the snapshot :class:`ServeReport` as JSON.
* ``POST /ingest`` — submit batches into the tenant queues from
  outside: the body names batches by journal identity
  (``tenant``/``batch_id``/``start``/``stop``) and the server
  materializes trace slices through the harness, so external traffic
  replays *exactly* like a scripted scenario.
* ``POST /drain`` / ``POST /finish`` — graceful shutdown over HTTP;
  ``/finish`` returns the final report and freezes it for later GETs.

Every handler serializes on one lock shared with the scripted replay
(:meth:`ServeHarness.run` accepts it), so a scrape mid-storm sees a
consistent loop state and an ``/ingest``-driven run stays bit-identical
to its scripted equivalent.  The simulated clock never observes HTTP
timing — transport pacing cannot change a replayed result.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import serve_prometheus
from repro.obs.recorder import sanitize_json
from repro.serve.health import FLAPPING


def parse_listen(spec: str) -> tuple[str, int]:
    """``host:port``, ``:port``, or bare ``port``; a missing host binds
    loopback (the safe default for a dev/CI telemetry endpoint)."""
    host, _, port = spec.rpartition(":")
    if not port:
        raise ValueError(f"listen spec {spec!r} needs a port")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"listen spec {spec!r}: port must be an integer") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"listen spec {spec!r}: port out of range")
    return (host or "127.0.0.1", port_num)


class LiveServeServer:
    """One HTTP endpoint bound to one resident serving loop."""

    def __init__(
        self,
        loop,
        make_batch=None,
        scenario: str = "",
        host: str = "127.0.0.1",
        port: int = 0,
        extra_labels: dict | None = None,
    ) -> None:
        self.loop = loop
        self.make_batch = make_batch
        self.scenario = scenario
        self.extra_labels = dict(extra_labels or {})
        self.lock = threading.RLock()
        self._final = None  # ServeReport after /finish (or set_final)
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Telemetry endpoints must not spam the serving process.
            def log_message(self, fmt, *args):
                pass

            def _send(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, status: int, payload):
                body = json.dumps(
                    sanitize_json(payload), allow_nan=False
                ).encode()
                self._send(status, "application/json", body)

            def do_GET(self):
                try:
                    server._get(self)
                except BrokenPipeError:
                    pass
                except Exception as exc:  # surface, don't kill the thread
                    self._json(500, {"error": repr(exc)})

            def do_POST(self):
                try:
                    server._post(self)
                except BrokenPipeError:
                    pass
                except Exception as exc:
                    self._json(500, {"error": repr(exc)})

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-live", daemon=True
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "LiveServeServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "LiveServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def set_final(self, report) -> None:
        """Freeze the end-of-run report (scripted runs call this after
        ``harness.run``; ``/finish`` does it for ingest-driven runs)."""
        with self.lock:
            self._final = report

    # -- snapshots ------------------------------------------------------

    def _snapshot(self):
        """Current report under the lock: live until finished, then the
        frozen final report."""
        if self._final is not None:
            return self._final
        return self.loop.snapshot_report(self.scenario)

    def metrics_text(self) -> str:
        with self.lock:
            return serve_prometheus(self._snapshot(), self.extra_labels)

    # -- request handling ----------------------------------------------

    def _get(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            handler._send(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics_text().encode(),
            )
        elif path == "/healthz":
            with self.lock:
                state = self.loop.health.state
                payload = {
                    "state": state,
                    "epochs": self.loop.epochs,
                    "queued": self.loop.queued,
                    "finished": self._final is not None,
                    "degraded_windows": self.loop.health.windows_view(),
                }
            handler._json(503 if state == FLAPPING else 200, payload)
        elif path == "/slo":
            with self.lock:
                payload = (
                    self.loop.slo.status()
                    if self.loop.slo is not None
                    else {"tenants": {}}
                )
            handler._json(200, payload)
        elif path == "/report":
            with self.lock:
                payload = self._snapshot().to_json()
            handler._json(200, payload)
        else:
            handler._json(404, {"error": f"unknown path {path!r}"})

    def _read_body(self, handler) -> dict:
        length = int(handler.headers.get("Content-Length") or 0)
        raw = handler.rfile.read(length) if length else b""
        if not raw:
            return {}
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _post(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            payload = self._read_body(handler)
        except (ValueError, json.JSONDecodeError) as exc:
            handler._json(400, {"error": str(exc)})
            return
        if path == "/ingest":
            self._ingest(handler, payload)
        elif path == "/drain":
            with self.lock:
                if self._final is not None:
                    handler._json(409, {"error": "loop already finished"})
                    return
                drained = self.loop.drain()
            handler._json(200, {"drained": drained})
        elif path == "/finish":
            with self.lock:
                if self._final is not None:
                    handler._json(409, {"error": "loop already finished"})
                    return
                report = self.loop.finish(
                    str(payload.get("scenario", self.scenario))
                )
                self._final = report
            handler._json(200, report.to_json())
        else:
            handler._json(404, {"error": f"unknown path {path!r}"})

    def _ingest(self, handler, payload: dict) -> None:
        """Submit batches, then optionally serve: ``steps`` absent means
        submit-only, ``null`` drains the backlog fully, an integer is a
        bounded serving burst — the exact vocabulary of a scripted
        wave, so external clients can reproduce any scenario pacing."""
        if self.make_batch is None:
            handler._json(
                501, {"error": "this endpoint has no workload to slice"}
            )
            return
        batches = payload.get("batches", [])
        if not isinstance(batches, list):
            handler._json(400, {"error": "'batches' must be a list"})
            return
        decisions = []
        with self.lock:
            if self._final is not None:
                handler._json(409, {"error": "loop already finished"})
                return
            try:
                materialized = [
                    self.make_batch(
                        str(spec["tenant"]),
                        int(spec["batch_id"]),
                        int(spec["start"]),
                        int(spec["stop"]),
                    )
                    for spec in batches
                ]
            except (KeyError, TypeError, ValueError) as exc:
                handler._json(400, {"error": f"bad batch spec: {exc!r}"})
                return
            for batch in materialized:
                decision = self.loop.submit(batch)
                decisions.append(
                    {
                        "tenant": batch.tenant,
                        "batch_id": batch.batch_id,
                        "admitted": decision.admitted,
                        "reason": decision.reason,
                    }
                )
            steps = 0
            if "steps" in payload:
                limit = payload["steps"]
                steps = self.loop.run_until_idle(
                    max_steps=None if limit is None else int(limit)
                )
            queued = self.loop.queued
            epochs = self.loop.epochs
        handler._json(
            200,
            {
                "decisions": decisions,
                "steps": steps,
                "queued": queued,
                "epochs": epochs,
            },
        )
