"""The stdlib HTTP face of the service: JSON over REST.

:class:`ServeService` wraps a :class:`~repro.serve.queue.JobQueue` in a
:class:`~http.server.ThreadingHTTPServer` plus a housekeeping thread
that sweeps expired leases. Endpoints (all JSON unless noted):

Client surface::

    GET    /v1/health                          liveness probe
    GET    /v1/status                          full service status
    POST   /v1/jobs                            submit one JobSpec
    POST   /v1/sweeps                          submit many (one fsync)
    GET    /v1/submissions/<id>                one submission's status
    GET    /v1/submissions/<id>/result         its finished record
    DELETE /v1/submissions/<id>                cancel
    GET    /v1/runs/<job_key>                  shared-run status
    GET    /v1/runs/<job_key>/result           its finished record
    GET    /v1/runs/<job_key>/artifacts        telemetry artifact names
    GET    /v1/runs/<job_key>/artifacts/<name> artifact download (bytes)
    GET    /v1/runs/<job_key>/trace            stitched host+cycle trace
    GET    /v1/events?offset=N[&job=K][&wait_s=S]   tail the event log

Observability surface::

    GET /metrics       Prometheus text exposition (scrape target)
    GET /healthz       health state: ok | degraded | read_only + reasons
                       (503 + Retry-After while read_only)
    GET /v1/flight     the flight recorder's current ring, oldest first

Worker surface::

    POST /v1/worker/lease       {worker}                 -> lease | idle
    POST /v1/worker/heartbeat   {job_key, token, worker} -> deadline
    POST /v1/worker/commit      {job_key, token, record} -> run view
    POST /v1/worker/fail        {job_key, token, kind, error, retryable?}

Admin surface::

    POST /v1/admin/drain        {on}    stop leasing new work
    POST /v1/admin/expire               force a lease sweep (tests/ops)

``/v1/events`` is the streaming surface: it tails the queue's
orchestration event log (``events.jsonl``) with the torn-tail-tolerant
reader, returns a byte offset to resume from, and optionally long-polls
(``wait_s``): a parked request is woken by the queue's next append, so a
client follows the log live without busy-waiting.

Connections are persistent HTTP/1.1 with ``TCP_NODELAY``: one handler
thread serves one client connection for as long as it stays open, and
closes it after :data:`_IDLE_TIMEOUT_S` without a request.
:meth:`ServeService.stop` shuts every open connection and joins its
handler thread.

Errors map :class:`~repro.serve.model.ServeError` subclasses to their
HTTP statuses (404 unknown, 409 stale lease, 429 quota/backlog, 503
read-only); errors carrying ``retry_after`` get a ``Retry-After``
header plus a ``retry_after`` field in the JSON body — the signal
:class:`~repro.serve.client.ServeClient`'s retry budget honors.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.promtext import Family, render_prometheus
from repro.orchestrate.events import tail_events

from repro.serve.model import ServeError
from repro.serve.queue import JobQueue

__all__ = ["ServeService"]

#: Cap on the events endpoint's long-poll, seconds.
_MAX_WAIT_S = 30.0
#: How often a parked long-poll re-reads the log for lines appended by
#: other writers; the queue's own appends wake it at once.
_POLL_S = 0.05
#: Seconds a keep-alive connection may sit between requests before its
#: handler closes it; a client reconnects on its next request.
_IDLE_TIMEOUT_S = 60.0
#: How long :meth:`ServeService.stop` waits for handler threads after
#: shutting their connections.
_STOP_JOIN_S = 2.0


class _Handler(BaseHTTPRequestHandler):
    """One request; the queue (thread-safe) hangs off the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    timeout = _IDLE_TIMEOUT_S
    # Headers and body go out as two writes; with Nagle on, the second
    # waits for the client's delayed ACK of the first.
    disable_nagle_algorithm = True

    # Routing ------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        server: _Server = self.server  # type: ignore[assignment]
        server.count_request()
        queue = server.queue
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Where the body ends is unknown: answer, then hang up.
            self._send_json({"error": "bad Content-Length",
                             "type": "ValueError"}, status=400,
                            headers={"Connection": "close"})
            return
        # Read the whole body whatever the route, so the next request
        # on this connection starts at a request line.
        self._body = self.rfile.read(length)
        try:
            handled = self._route(method, parts, query, queue)
        except ServeError as exc:
            doc = {"error": str(exc), "type": type(exc).__name__}
            headers = {}
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                doc["retry_after"] = retry_after
                headers["Retry-After"] = f"{retry_after:g}"
            self._send_json(doc, status=exc.http_status, headers=headers)
            return
        except (ValueError, TypeError, KeyError) as exc:
            self._send_json({"error": str(exc),
                             "type": type(exc).__name__}, status=400)
            return
        except Exception as exc:  # noqa: BLE001 — isolate the connection
            self._send_json({"error": str(exc),
                             "type": type(exc).__name__}, status=500)
            return
        if not handled:
            self._send_json({"error": f"no route {method} {url.path}"},
                            status=404)

    def _route(self, method: str, parts: list, query: Dict[str, str],
               queue: JobQueue) -> bool:
        if method == "GET" and parts == ["metrics"]:
            # Top-level by scraper convention, text not JSON.
            families = (queue.prometheus_families()
                        + self.server.http_families())  # type: ignore
            self._send_text(render_prometheus(families),
                            ctype="text/plain; version=0.0.4; "
                                  "charset=utf-8")
            return True
        if method == "GET" and parts == ["healthz"]:
            # Top-level by load-balancer convention. 503 while
            # read-only so an LB stops routing writes, but the body
            # still carries the full document (reasons, watermarks).
            doc = queue.healthz()
            if doc["state"] == "read_only":
                self._send_json(
                    doc, status=503,
                    headers={"Retry-After":
                             f"{doc.get('retry_after_s', 1.0):g}"})
            else:
                self._send_json(doc)
            return True
        if len(parts) < 2 or parts[0] != "v1":
            return False
        head, rest = parts[1], parts[2:]

        if method == "GET":
            if head == "health" and not rest:
                self._send_json({"ok": True, "draining": queue.draining})
                return True
            if head == "status" and not rest:
                service = self.server  # type: ignore[assignment]
                doc = queue.status()
                doc["uptime_s"] = round(
                    time.time() - service.started_at, 3)  # type: ignore
                self._send_json(doc)
                return True
            if head == "submissions" and len(rest) == 1:
                self._send_json(queue.submission_view(rest[0]))
                return True
            if head == "submissions" and len(rest) == 2 \
                    and rest[1] == "result":
                self._send_json(queue.result(rest[0]))
                return True
            if head == "runs" and len(rest) == 1:
                self._send_json(queue.run_view(rest[0]))
                return True
            if head == "runs" and len(rest) == 2 and rest[1] == "result":
                self._send_json(queue.result(rest[0]))
                return True
            if head == "runs" and len(rest) == 2 \
                    and rest[1] == "artifacts":
                self._send_json(
                    {"job_key": rest[0],
                     "artifacts": queue.artifact_names(rest[0])})
                return True
            if head == "runs" and len(rest) == 3 \
                    and rest[1] == "artifacts":
                return self._send_artifact(queue, rest[0], rest[2])
            if head == "runs" and len(rest) == 2 and rest[1] == "trace":
                self._send_json(queue.stitched_trace(rest[0]))
                return True
            if head == "flight" and not rest:
                self._send_json(queue.flight.payload())
                return True
            if head == "events" and not rest:
                self._send_json(self._tail(queue, query))
                return True
            return False

        if method == "POST":
            body = self._read_json()
            if head == "jobs" and not rest:
                deadline_s = body.get("deadline_s")
                view = queue.submit(
                    tenant=str(body["tenant"]), spec_dict=body["spec"],
                    priority=int(body.get("priority", 0)),
                    telemetry=bool(body.get("telemetry", False)),
                    deadline_s=(float(deadline_s)
                                if deadline_s is not None else None))
                self._send_json(view, status=201)
                return True
            if head == "sweeps" and not rest:
                deadline_s = body.get("deadline_s")
                views = queue.submit_many(
                    tenant=str(body["tenant"]),
                    spec_dicts=list(body["specs"]),
                    priority=int(body.get("priority", 0)),
                    telemetry=bool(body.get("telemetry", False)),
                    deadline_s=(float(deadline_s)
                                if deadline_s is not None else None))
                self._send_json({"submissions": views}, status=201)
                return True
            if head == "worker" and rest == ["lease"]:
                lease = queue.lease(str(body.get("worker", "anonymous")))
                if lease is None:
                    # events_offset lets an idle worker long-poll the
                    # event stream instead of re-polling this endpoint.
                    self._send_json({"idle": True,
                                     "draining": queue.draining,
                                     "events_offset":
                                         queue.events_offset()})
                else:
                    self._send_json(lease, status=201)
                return True
            if head == "worker" and rest == ["heartbeat"]:
                expires = queue.heartbeat(str(body["job_key"]),
                                          int(body["token"]),
                                          str(body.get("worker", "")))
                self._send_json({"expires": expires})
                return True
            if head == "worker" and rest == ["commit"]:
                view = queue.commit(str(body["job_key"]),
                                    int(body["token"]), body["record"])
                self._send_json(view, status=201)
                return True
            if head == "worker" and rest == ["fail"]:
                view = queue.fail(str(body["job_key"]), int(body["token"]),
                                  str(body.get("kind", "error")),
                                  str(body.get("error", "")),
                                  retryable=bool(body.get("retryable",
                                                          True)))
                self._send_json(view)
                return True
            if head == "admin" and rest == ["drain"]:
                queue.drain(bool(body.get("on", True)))
                self._send_json({"draining": queue.draining,
                                 "idle": queue.idle})
                return True
            if head == "admin" and rest == ["expire"]:
                self._send_json({"requeued": queue.expire_leases()})
                return True
            return False

        if method == "DELETE":
            if head == "submissions" and len(rest) == 1:
                self._send_json(queue.cancel(rest[0]))
                return True
            return False
        return False

    # Streaming ----------------------------------------------------------

    def _tail(self, queue: JobQueue,
              query: Dict[str, str]) -> Dict[str, Any]:
        offset = int(query.get("offset", 0))
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        wait_s = float(query.get("wait_s", 0))
        if not math.isfinite(wait_s):
            raise ValueError(f"wait_s must be finite, got {wait_s}")
        job = query.get("job")
        deadline = time.monotonic() + min(wait_s, _MAX_WAIT_S)
        skipped = 0
        while True:
            # Read the append count before the file: an append landing
            # after the read below then shows up as a newer count.
            seen = queue.event_appends
            events, offset, more = tail_events(queue.events_path, offset)
            skipped += more
            if job is not None:
                events = [e for e in events if e.get("job_key") == job]
            remaining = deadline - time.monotonic()
            if events or remaining <= 0 \
                    or self.server.stopping.is_set():  # type: ignore
                return {"events": events, "offset": offset,
                        "skipped": skipped}
            # Woken by the queue's next append; _POLL_S bounds the wait
            # so lines another process appends are still re-read.
            queue.wait_for_append(seen, min(remaining, _POLL_S))

    def _send_artifact(self, queue: JobQueue, job_key: str,
                       name: str) -> bool:
        # Reject path tricks: artifact names are single path components.
        if os.path.basename(name) != name or name.startswith("."):
            return False
        path = os.path.join(queue.artifacts_dir(job_key), name)
        if not os.path.isfile(path):
            return False
        with open(path, "rb") as handle:
            blob = handle.read()
        ctype = ("application/json" if name.endswith(".json")
                 else "text/csv" if name.endswith(".csv")
                 else "application/octet-stream")
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        return True

    # Plumbing -----------------------------------------------------------

    def _read_json(self) -> Dict[str, Any]:
        if not self._body:
            return {}
        body = json.loads(self._body.decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _send_json(self, doc: Any, status: int = 200,
                   headers: Dict[str, str] = None) -> None:
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _send_text(self, text: str, ctype: str = "text/plain",
                   status: int = 200) -> None:
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)


class _Server(ThreadingHTTPServer):
    """One handler thread per connection, tracked so that
    :meth:`close_connections` can end them, and counted for
    ``/metrics``."""

    daemon_threads = True
    block_on_close = False  # close_connections() joins, with a bound

    def __init__(self, address: Tuple[str, int], queue: JobQueue,
                 verbose: bool) -> None:
        super().__init__(address, _Handler)
        self.queue = queue
        self.verbose = verbose
        self.started_at = time.time()
        #: Set by :meth:`ServeService.stop`: parked long-polls return.
        self.stopping = threading.Event()
        self._lock = threading.Lock()
        #: Open connection socket -> its handler thread.
        self._live: Dict[socket.socket, threading.Thread] = {}
        self.connections_total = 0
        self.requests_total = 0

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"serve-conn:{self.server_address[1]}", daemon=True)
        with self._lock:
            self._live[request] = thread
            self.connections_total += 1
        thread.start()

    def process_request_thread(self, request: Any,
                               client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._lock:
                self._live.pop(request, None)

    def count_request(self) -> None:
        with self._lock:
            self.requests_total += 1

    def close_connections(self, timeout: float) -> None:
        """Shut the read side of every open connection, then join the
        handler threads for at most ``timeout`` seconds in all. An idle
        handler wakes at EOF and exits; a busy one sends its response
        first."""
        with self._lock:
            live = list(self._live.items())
        for sock, _ in live:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the client already closed it
        deadline = time.monotonic() + timeout
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))

    def http_families(self) -> List[Family]:
        with self._lock:
            connections, requests = (self.connections_total,
                                     self.requests_total)
        return [Family("repro_serve_http_connections_total", "counter",
                       "HTTP connections accepted.").add(connections),
                Family("repro_serve_http_requests_total", "counter",
                       "HTTP requests dispatched.").add(requests)]


class ServeService:
    """The running service: HTTP server + lease-expiry housekeeping."""

    def __init__(self, queue: JobQueue, host: str = "127.0.0.1",
                 port: int = 0, housekeeping_s: float = 0.25,
                 verbose: bool = False) -> None:
        self.queue = queue
        self.httpd = _Server((host, port), queue, verbose)
        self.housekeeping_s = housekeeping_s
        self._threads: list = []
        self._stop = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeService":
        server = threading.Thread(target=self.httpd.serve_forever,
                                  kwargs={"poll_interval": 0.1},
                                  name="serve-http", daemon=True)
        sweeper = threading.Thread(target=self._housekeeping,
                                   name="serve-sweeper", daemon=True)
        self._threads = [server, sweeper]
        for thread in self._threads:
            thread.start()
        return self

    def _housekeeping(self) -> None:
        while not self._stop.wait(self.housekeeping_s):
            try:
                self.queue.expire_leases()
                self.queue.health_probe()
            except Exception:  # pragma: no cover - keep sweeping
                pass

    def stop(self) -> None:
        """Stop accepting, end every open connection (joining handler
        threads for at most :data:`_STOP_JOIN_S`), then close the
        queue."""
        self._stop.set()
        self.httpd.stopping.set()
        self.httpd.shutdown()
        self.httpd.close_connections(_STOP_JOIN_S)
        self.httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self.queue.close()

    def serve_forever(self) -> None:  # pragma: no cover - CLI loop
        """Foreground mode for the CLI: blocks until interrupted."""
        try:
            self._threads[0].join()
        except KeyboardInterrupt:
            pass
