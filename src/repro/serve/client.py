"""Stdlib HTTP client for the service — used by the CLI, the worker
fleet, and tests.

Raises :class:`ServeHTTPError` (carrying the HTTP status and the
server's error document) on any non-2xx response, except that
:meth:`ServeClient.lease` maps "idle" to None and the stale-lease 409
is re-raised as :class:`~repro.serve.model.StaleLeaseError` so workers
can branch on it without parsing messages.

Retry budget
------------

With ``retries > 0`` the client retries, under jittered exponential
backoff:

* ``503``/``429`` responses **that carry a Retry-After header** — the
  server's explicit "safe to retry" signal (read-only recovery,
  backlog drain). A quota 429 has no Retry-After and raises at once:
  retrying a policy refusal is pointless.
* connection errors and truncated/garbled bodies, but **only for
  idempotent requests** (GETs). A dropped connection during a POST may
  have reached the server — blindly resending a submit would duplicate
  it, so non-idempotent errors always surface to the caller, who owns
  the dedup story (submissions dedup by content address; commits are
  generation-fenced).

The backoff RNG is seedable (``retry_seed``) so chaos campaigns replay
deterministically, and the whole HTTP path goes through one pluggable
``transport`` callable so :mod:`repro.chaos.httpshim` can sit between
this client and the wire without monkeypatching.

Circuit breaker
---------------

Pass ``breaker=CircuitBreaker(...)`` (or ``breaker=True`` for
defaults) and every wire call is gated through it: after a streak of
transport failures (OSError or 5xx) the breaker opens and requests
fail *locally* with :class:`~repro.serve.breaker.CircuitOpenError` —
an ``OSError``, so existing backoff arms handle it — until a half-open
probe finds the service answering again. See :mod:`repro.serve.breaker`.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from collections import Counter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

from repro.serve.breaker import CircuitBreaker, CircuitOpenError
from repro.serve.model import StaleLeaseError

__all__ = ["ServeClient", "ServeHTTPError", "urllib_transport"]

#: (status, body bytes, response headers). Non-HTTP failures raise
#: OSError (urllib's URLError is one).
TransportResult = Tuple[int, bytes, Dict[str, str]]
Transport = Callable[[str, str, Optional[bytes], float, Dict[str, str]],
                     TransportResult]


class ServeHTTPError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, doc: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {doc.get('error', doc)}")
        self.status = status
        self.doc = doc


def urllib_transport(method: str, url: str, data: Optional[bytes],
                     timeout: float,
                     headers: Dict[str, str]) -> TransportResult:
    """The default wire: one urllib round-trip, HTTP errors returned
    as statuses (not raised) so the retry loop sees every response the
    same way. Connection-level trouble raises OSError."""
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=dict(headers))
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            resp_headers = {k.title(): v for k, v in resp.headers.items()}
            return int(resp.status), resp.read(), resp_headers
    except urllib.error.HTTPError as exc:
        try:
            body = exc.read()
        except OSError:
            body = b""
        resp_headers = {k.title(): v for k, v in exc.headers.items()} \
            if exc.headers else {}
        return int(exc.code), body, resp_headers


class ServeClient:
    """Thin JSON-over-HTTP wrapper around the service endpoints."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 0, backoff_s: float = 0.1,
                 backoff_max_s: float = 2.0,
                 retry_seed: Optional[int] = None,
                 transport: Optional[Transport] = None,
                 breaker: Union[CircuitBreaker, bool, None] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._rng = random.Random(retry_seed)
        self.transport: Transport = transport or urllib_transport
        if breaker is True:
            breaker = CircuitBreaker()
        self.breaker: Optional[CircuitBreaker] = breaker or None
        #: Retries actually performed, by reason — feeds worker metrics.
        self.retry_counts: Counter = Counter()

    # ------------------------------------------------------------ plumbing

    def _wire(self, method: str, url: str, data: Optional[bytes],
              timeout: float, headers: Dict[str, str]) -> TransportResult:
        """One gated transport round-trip: refused locally while the
        breaker is open; OSErrors and 5xx statuses count against it,
        any other answer (even a 4xx) closes it."""
        if self.breaker is not None:
            self.breaker.allow()
        try:
            result = self.transport(method, url, data, timeout, headers)
        except OSError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            if result[0] >= 500:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return result

    def _delay(self, attempt: int, retry_after: Optional[float]) -> float:
        base = min(self.backoff_max_s,
                   self.backoff_s * (2 ** max(0, attempt - 1)))
        jitter = base * self._rng.random()
        if retry_after is not None:
            return max(0.0, retry_after) + jitter
        return base + jitter

    @staticmethod
    def _retry_after_of(headers: Dict[str, str],
                        doc: Dict[str, Any]) -> Optional[float]:
        raw = headers.get("Retry-After")
        if raw is None:
            raw = doc.get("retry_after")
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            return None

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None,
                idempotent: Optional[bool] = None) -> Any:
        url = f"{self.base_url}{path}"
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        headers = {"Content-Type": "application/json"} if data else {}
        if idempotent is None:
            idempotent = method == "GET"
        attempt = 0
        while True:
            attempt += 1
            budget_left = attempt <= self.retries
            try:
                status, blob, resp_headers = self._wire(
                    method, url, data, timeout or self.timeout, headers)
            except CircuitOpenError:
                raise  # local refusal: retrying without waiting is futile
            except OSError as exc:
                if idempotent and budget_left:
                    self.retry_counts["connection"] += 1
                    time.sleep(self._delay(attempt, None))
                    continue
                raise
            if 200 <= status < 300:
                try:
                    return json.loads(blob.decode("utf-8"))
                except ValueError as exc:
                    # Truncated/garbled body: the request *did* land.
                    if idempotent and budget_left:
                        self.retry_counts["bad_body"] += 1
                        time.sleep(self._delay(attempt, None))
                        continue
                    raise ServeHTTPError(
                        status, {"error": f"unparseable body: {exc}"}) \
                        from None
            try:
                doc = json.loads(blob.decode("utf-8"))
            except ValueError:
                doc = {"error": blob.decode("utf-8", "replace")[:200]}
            if status == 409:
                raise StaleLeaseError(doc.get("error", "stale lease"))
            retry_after = self._retry_after_of(resp_headers, doc)
            if status in (503, 429) and retry_after is not None \
                    and budget_left:
                self.retry_counts[str(status)] += 1
                time.sleep(self._delay(attempt, retry_after))
                continue
            raise ServeHTTPError(status, doc)

    # -------------------------------------------------------------- client

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/health")

    def healthz(self) -> Dict[str, Any]:
        """The /healthz document, *without* retry mapping: a 503 here
        is an answer (state=read_only), not a failure."""
        status, blob, _ = self._wire(
            "GET", f"{self.base_url}/healthz", None, self.timeout, {})
        doc = json.loads(blob.decode("utf-8"))
        doc["http_status"] = status
        return doc

    def status(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/status")

    def submit(self, tenant: str, spec: Dict[str, Any],
               priority: int = 0,
               telemetry: bool = False,
               deadline_s: Optional[float] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {"tenant": tenant, "spec": spec,
                                "priority": priority,
                                "telemetry": telemetry}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self.request("POST", "/v1/jobs", body,
                            idempotent=True)  # dedup by content address

    def submit_many(self, tenant: str, specs: List[Dict[str, Any]],
                    priority: int = 0,
                    telemetry: bool = False,
                    deadline_s: Optional[float] = None
                    ) -> List[Dict[str, Any]]:
        body: Dict[str, Any] = {"tenant": tenant, "specs": specs,
                                "priority": priority,
                                "telemetry": telemetry}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        doc = self.request("POST", "/v1/sweeps", body, idempotent=True)
        return doc["submissions"]

    def submission(self, sub_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/submissions/{sub_id}")

    def result(self, ref: str) -> Dict[str, Any]:
        """Finished record for a submission id or a job key."""
        if "-" in ref:
            return self.request("GET", f"/v1/submissions/{ref}/result")
        return self.request("GET", f"/v1/runs/{ref}/result")

    def run(self, job_key: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/runs/{job_key}")

    def cancel(self, sub_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/submissions/{sub_id}")

    def artifacts(self, job_key: str) -> List[str]:
        doc = self.request("GET", f"/v1/runs/{job_key}/artifacts")
        return doc["artifacts"]

    def artifact(self, job_key: str, name: str) -> bytes:
        url = f"{self.base_url}/v1/runs/{job_key}/artifacts/{name}"
        status, blob, _ = self._wire("GET", url, None, self.timeout, {})
        if status != 200:
            raise ServeHTTPError(status, {"error": f"artifact {name}"})
        return blob

    # ------------------------------------------------------- observability

    def metrics(self) -> str:
        """The raw Prometheus text body of ``GET /metrics``."""
        status, blob, _ = self._wire(
            "GET", f"{self.base_url}/metrics", None, self.timeout, {})
        if status != 200:
            raise ServeHTTPError(status, {"error": "metrics"})
        return blob.decode("utf-8")

    def trace(self, job_key: str) -> Dict[str, Any]:
        """The run's stitched host+cycle Perfetto document."""
        return self.request("GET", f"/v1/runs/{job_key}/trace")

    def flight(self) -> Dict[str, Any]:
        """The service's flight-recorder ring (recent queue events)."""
        return self.request("GET", "/v1/flight")

    # ----------------------------------------------------------- streaming

    def events(self, offset: int = 0, job: Optional[str] = None,
               wait_s: float = 0.0) -> Tuple[List[Dict[str, Any]], int]:
        """One tail step: events after ``offset`` (optionally filtered
        to one job, optionally long-polling) plus the next offset."""
        path = f"/v1/events?offset={offset}"
        if job:
            path += f"&job={job}"
        if wait_s:
            path += f"&wait_s={wait_s}"
        doc = self.request("GET", path,
                           timeout=max(self.timeout, wait_s + 10))
        return doc["events"], doc["offset"]

    def follow(self, job: Optional[str] = None, poll_s: float = 0.5,
               stop_after_s: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """Generator over the live event stream (Ctrl-C to stop)."""
        offset = 0
        deadline = (time.monotonic() + stop_after_s
                    if stop_after_s else None)
        while deadline is None or time.monotonic() < deadline:
            events, offset = self.events(offset, job=job, wait_s=poll_s)
            for event in events:
                yield event

    # -------------------------------------------------------------- worker

    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        doc = self.request("POST", "/v1/worker/lease",
                           {"worker": worker_id})
        return None if doc.get("idle") else doc

    def heartbeat(self, job_key: str, token: int,
                  worker_id: str = "") -> float:
        doc = self.request("POST", "/v1/worker/heartbeat",
                           {"job_key": job_key, "token": token,
                            "worker": worker_id})
        return float(doc["expires"])

    def commit(self, job_key: str, token: int,
               record: Dict[str, Any]) -> Dict[str, Any]:
        # Generation fencing makes a duplicated commit safe (the second
        # one gets 409), so the commit POST may ride the retry budget.
        return self.request("POST", "/v1/worker/commit",
                            {"job_key": job_key, "token": token,
                             "record": record}, idempotent=True)

    def fail(self, job_key: str, token: int, kind: str, error: str,
             retryable: bool = True) -> Dict[str, Any]:
        return self.request("POST", "/v1/worker/fail",
                            {"job_key": job_key, "token": token,
                             "kind": kind, "error": error,
                             "retryable": retryable})

    # --------------------------------------------------------------- admin

    def drain(self, on: bool = True) -> Dict[str, Any]:
        return self.request("POST", "/v1/admin/drain", {"on": on})

    def expire(self) -> List[str]:
        return self.request("POST", "/v1/admin/expire", {})["requeued"]

    def wait_idle(self, timeout_s: float = 60.0,
                  poll_s: float = 0.2) -> Dict[str, Any]:
        """Block until no queued/leased work remains.

        Rides the event stream's long-poll between status checks
        instead of sleeping a fixed interval: each queue transition
        (commit, failure, requeue) wakes the wait immediately, so an
        idle queue is detected within one round-trip of becoming idle
        while a busy one costs one parked HTTP request instead of
        ``timeout_s / poll_s`` status polls."""
        deadline = time.monotonic() + timeout_s
        offset = 0
        while True:
            status = self.status()
            runs = status["runs"]
            if not runs.get("queued", 0) and not runs.get("leased", 0):
                return status
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"queue not idle after {timeout_s}s: {runs}")
            try:
                _, offset = self.events(offset=offset,
                                        wait_s=min(remaining, 5.0))
            except (ServeHTTPError, OSError, StaleLeaseError):
                # Event endpoint trouble must not break the wait: fall
                # back to one plain sleep, then re-check status.
                time.sleep(min(poll_s, max(0.0, remaining)))
