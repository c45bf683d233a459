"""The HTTP/JSON front end: stdlib-only, threaded, signal-drained.

Routes (see ``docs/SERVING.md`` for the full API reference):

* ``POST /jobs``            — submit; 202 with the job record
  (201-equivalent; already-terminal cache hits come back the same way)
* ``GET  /jobs/<id>``       — status with supervision provenance
* ``GET  /jobs/<id>/result``— the result payload (409 until terminal)
* ``DELETE /jobs/<id>``     — cooperative cancel (409 once terminal)
* ``GET  /healthz``         — liveness
* ``GET  /stats``           — queue depth, in-flight, cache/dedup
  counters, latency histogram + percentiles

Built on :class:`http.server.ThreadingHTTPServer` — no new runtime
dependencies; one OS thread per connection, with the scheduler's own
worker pool doing the actual simulation work behind the queue.

:func:`serve_forever` is the CLI entry: it installs SIGINT/SIGTERM
handlers that stop the accept loop, drains the scheduler (in-flight
jobs finish inside the grace window; stragglers are cooperatively
cancelled), journals the shutdown, and returns the exit code — 0 for a
clean drain, 4 when jobs had to be cancelled (the same cancelled-run
code ``run-all`` uses).
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.serve import store as jobstore
from repro.serve.schema import JobSpecError
from repro.serve.scheduler import Scheduler, SchedulerClosed

__all__ = ["ServeApp", "serve_forever"]

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/result$")

#: Refuse absurd request bodies before reading them.
_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """One request; the scheduler hangs off the server object."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # One send per response, with Nagle off: a response split into
    # headers and body with Nagle on holds the body until the client's
    # delayed ACK (~40 ms) on a keep-alive connection.
    # ``handle_one_request`` and ``finish`` flush the buffer once the
    # response is complete; a response larger than the buffer (only a
    # large experiment result) leaves in several sends, which Nagle-off
    # keeps from stalling.
    wbufsize = 1 << 14
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        # The interim 100 must leave now, not with the final response:
        # the client is waiting for it before it sends the body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise JobSpecError(
                f"request body too large ({length} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobSpecError("empty request body; expected a JSON job")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"invalid JSON body: {exc}") from None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802  (stdlib naming)
        try:
            self._route_get()
        except Exception as exc:  # pragma: no cover - handler guard
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route_get(self) -> None:
        if self.path == "/healthz":
            stats = self.scheduler.stats()
            self._send(200, {
                "status": "ok",
                "accepting": stats["accepting"],
                "workers": stats["workers"],
            })
            return
        if self.path == "/stats":
            self._send(200, self.scheduler.stats())
            return
        match = _RESULT_PATH.match(self.path)
        if match:
            self._get_result(match.group(1))
            return
        match = _JOB_PATH.match(self.path)
        if match:
            job = self.scheduler.get(match.group(1))
            if job is None:
                self._no_job(match.group(1))
            else:
                self._send(200, job.describe())
            return
        self._send(404, {"error": f"no such route {self.path!r}"})

    def _get_result(self, job_id: str) -> None:
        job = self.scheduler.get(job_id)
        if job is None:
            self._no_job(job_id)
            return
        if not job.terminal:
            self._send(409, {
                "error": f"job {job_id} is {job.state}; result not ready",
                "state": job.state,
            })
            return
        payload: Dict[str, Any] = {"id": job.id, "state": job.state}
        if job.state == jobstore.DONE:
            payload["result"] = job.result
        elif job.state == jobstore.FAILED:
            payload["error"] = job.error
        else:
            payload["reason"] = job.reason
        self._send(200, payload)

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/jobs":
            self._send(404, {"error": f"no such route {self.path!r}"})
            return
        try:
            payload = self._read_json()
            job = self.scheduler.submit(payload)
        except JobSpecError as exc:
            self._send(400, {"error": str(exc)})
        except SchedulerClosed as exc:
            self._send(503, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - handler guard
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send(202, job.describe())

    # ------------------------------------------------------------------
    def do_DELETE(self) -> None:  # noqa: N802
        match = _JOB_PATH.match(self.path)
        if not match:
            self._send(404, {"error": f"no such route {self.path!r}"})
            return
        try:
            job = self.scheduler.cancel(match.group(1))
        except ValueError as exc:
            self._send(409, {"error": str(exc)})
            return
        if job is None:
            self._no_job(match.group(1))
        else:
            self._send(200, job.describe())

    def _no_job(self, job_id: str) -> None:
        if self.scheduler.store.expired(job_id):
            error = (f"job {job_id!r} expired: the server keeps the newest "
                     f"{jobstore.MAX_TERMINAL_JOBS} finished jobs")
        else:
            error = f"no such job {job_id!r}"
        self._send(404, {"error": error})


class _Server(ThreadingHTTPServer):
    # The stdlib default backlog (5) drops SYNs under concurrent-client
    # load: clients that open a connection per request (urllib does not
    # pool; keep-alive clients reconnect after errors) arrive as a burst
    # of fresh connections, and 100 of them overflow it, surfacing as
    # connection resets plus ~1 s retransmit spikes in the latency tail.
    request_queue_size = 128


class ServeApp:
    """The daemon: an HTTP server bound to a scheduler.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` —
    the test fixtures and the load harness rely on this).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.scheduler = scheduler
        self.httpd = _Server((host, port), _Handler)
        self.httpd.scheduler = scheduler  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ServeApp":
        """Serve in a background thread (tests, embedders)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self, drain_timeout_s: Optional[float] = 5.0):
        """Stop accepting, drain the scheduler, release the socket."""
        self.httpd.shutdown()
        report = self.scheduler.shutdown(drain_timeout_s)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return report


def serve_forever(
    scheduler: Scheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout_s: float = 10.0,
    announce=print,
    state_dir: Optional[Path] = None,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; return the exit code.

    Exit contract (mirrors ``run-all``): 0 — clean drain, every
    in-flight job completed; 4 — the drain had to cancel jobs (they are
    journaled as cancelled and, with a ``state_dir``, resumable).
    """
    app = ServeApp(scheduler, host=host, port=port)
    stop = threading.Event()
    received: Dict[str, str] = {}

    def _handler(signum: int, frame: Any) -> None:
        received["signal"] = signal.Signals(signum).name
        stop.set()

    previous: Dict[int, Any] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _handler)
    try:
        app.start()
        announce(f"serving on {app.url} "
                 f"(workers={len(scheduler._workers)}, "
                 f"state={state_dir or '-'})", flush=True)
        stop.wait()
        announce(
            f"received {received.get('signal', 'stop')}: draining "
            f"(grace {drain_timeout_s}s)", flush=True,
        )
        report = app.close(drain_timeout_s)
        announce(
            f"drained: {report.completed} job(s) completed, "
            f"{report.cancelled} cancelled", flush=True,
        )
        return 0 if report.clean else 4
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
