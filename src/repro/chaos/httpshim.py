"""The wire fault shim: a drop-in :class:`~repro.serve.client.ServeClient`
transport that injects a :class:`~repro.chaos.plan.ChaosPlan`'s HTTP
faults between the client and the real wire.

Keys are ``"METHOD /path"`` (query string stripped), matched with the
same fnmatch windows as the IO shim. Fault semantics:

* ``http_drop`` — the connection never happens: ConnectionResetError
  *before* the inner transport runs (the server saw nothing);
* ``http_delay`` — magnitude-ms stall, then the request proceeds;
* ``http_error`` — a synthetic ``503`` with a small Retry-After, the
  server untouched: exercises the client's header-gated retry budget;
* ``http_truncate`` — the real response's body cut at a byte offset:
  exercises the idempotent-only bad-body retry;
* ``http_drop_response`` — the inner transport **runs to completion**
  and the reply is then lost. The nastiest case: the server committed
  the effect, the client cannot know. This is precisely the ambiguity
  lease-generation fencing and content-address dedup exist to absorb,
  and the campaign asserts they do.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.chaos.plan import (HTTP_DELAY, HTTP_DROP, HTTP_DROP_RESPONSE,
                              HTTP_ERROR, HTTP_TRUNCATE, ChaosPlan,
                              FaultMatcher)
from repro.serve.client import KeepAliveTransport, Transport

__all__ = ["ChaosTransport"]


class ChaosTransport:
    """Callable matching the ServeClient transport signature."""

    def __init__(self, plan: Optional[ChaosPlan] = None,
                 inner: Optional[Transport] = None) -> None:
        self.plan = plan or ChaosPlan()
        self.inner: Transport = inner or KeepAliveTransport()
        self._matcher = FaultMatcher(self.plan.http_faults())
        self.requests = 0
        self.injected: List[Dict[str, Any]] = []

    def close(self) -> None:
        """Close the inner wire's pooled connections, if it has any."""
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def _note(self, kind: str, key: str) -> None:
        self.injected.append({"kind": kind, "site": key})

    def __call__(self, method: str, url: str, data: Optional[bytes],
                 timeout: float, headers: Dict[str, str]
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        self.requests += 1
        key = f"{method} {urlparse(url).path}"
        active = self._matcher.active(key)
        post_faults = []
        for fault in active:
            if fault.kind == HTTP_DROP:
                self._note(fault.kind, key)
                raise ConnectionResetError(
                    f"chaos: connection dropped ({key})")
            if fault.kind == HTTP_ERROR:
                self._note(fault.kind, key)
                return (503,
                        b'{"error": "chaos: injected 503", '
                        b'"type": "ServiceUnavailableError", '
                        b'"retry_after": 0.05}',
                        {"Retry-After": "0.05"})
            if fault.kind == HTTP_DELAY:
                self._note(fault.kind, key)
                time.sleep(min(fault.magnitude, 500) / 1000.0)
            elif fault.kind in (HTTP_TRUNCATE, HTTP_DROP_RESPONSE):
                post_faults.append(fault)
        status, body, resp_headers = self.inner(method, url, data,
                                                timeout, headers)
        for fault in post_faults:
            if fault.kind == HTTP_DROP_RESPONSE:
                self._note(fault.kind, key)
                raise ConnectionResetError(
                    f"chaos: response lost ({key}); the server already "
                    f"processed the request")
            if fault.kind == HTTP_TRUNCATE:
                self._note(fault.kind, key)
                body = body[:fault.magnitude % max(1, len(body))]
        return status, body, resp_headers
