"""Thin blocking HTTP client for the checking service.

Wraps ``http.client`` (stdlib only) for the verbs the CLI exposes:
``submit``, ``job``/``wait``, ``events`` (NDJSON streaming), and
``cancel``, plus ``health``, ``metrics``, and ``tenants``.  Raises
:class:`QueueFullError` (with the server's retry-after hint) on
backpressure and :class:`ServiceError` for every other non-2xx answer.

Two production-service conveniences:

* every request carries the client's **tenant** in ``X-Repro-Tenant``
  (defaulting to the server-side default tenant when unset), and
* ``submit`` **retries 429s**, sleeping the larger of the server's
  ``Retry-After`` -- which is derived from this tenant's own token
  bucket, so it is the exact time of the next token -- and a capped
  exponential backoff, plus decorrelating jitter.  ``retries=0``
  restores raw fail-fast behaviour.
"""

from __future__ import annotations

import json
import random
import socket
import time
from http.client import HTTPConnection
from typing import Callable, Dict, Iterator, List, Optional, Sequence
from urllib.parse import urlparse

__all__ = ["ServiceClient", "ServiceError", "QueueFullError"]

_TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceError(Exception):
    """A non-2xx service response."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, object]] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class QueueFullError(ServiceError):
    """429: throttled or full; retry after ``retry_after`` seconds.
    ``tenant``/``reason`` are set when the rejection was this tenant's
    own quota rather than the shared queue limit."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, object]] = None):
        super().__init__(status, message, payload)
        self.retry_after = float((payload or {}).get("retry_after", 1.0))
        self.tenant = (payload or {}).get("tenant")
        self.reason = (payload or {}).get("reason")


class ServiceClient:
    """Blocking client bound to one server URL (and one tenant)."""

    def __init__(self, url: str = "http://127.0.0.1:8123",
                 timeout: float = 60.0, tenant: Optional[str] = None,
                 retries: int = 4, backoff_base: float = 0.1,
                 backoff_cap: float = 5.0,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None):
        parsed = urlparse(url if "//" in url else "http://" + url)
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8123
        self.timeout = timeout
        self.tenant = tenant
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _connect(self, timeout: Optional[float]) -> HTTPConnection:
        return HTTPConnection(self.host, self.port,
                              timeout=self.timeout if timeout is None
                              else timeout)

    def _headers(self, json_body: bool = False) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if json_body:
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        conn = self._connect(None)
        try:
            encoded = json.dumps(body).encode("utf-8") \
                if body is not None else None
            conn.request(method, path, body=encoded,
                         headers=self._headers(encoded is not None))
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if response.status == 429:
            raise QueueFullError(response.status,
                                 str(payload.get("error", "queue full")),
                                 payload)
        if response.status >= 400:
            raise ServiceError(response.status,
                               str(payload.get("error", "request failed")),
                               payload)
        return payload

    def _backoff_delay(self, attempt: int, retry_after: float) -> float:
        """The server's hint, floored by capped exponential backoff and
        stretched by decorrelating jitter (so a herd of throttled
        clients does not re-arrive in one wave)."""
        backoff = min(self.backoff_cap,
                      self.backoff_base * (2.0 ** attempt))
        delay = max(retry_after, backoff)
        return delay * (1.0 + 0.25 * self._rng.random())

    # -- the verbs -----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """GET /metrics: the Prometheus text exposition."""
        conn = self._connect(None)
        try:
            conn.request("GET", "/metrics", headers=self._headers())
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                payload = {}
            raise ServiceError(response.status,
                               str(payload.get("error", "metrics failed")),
                               payload)
        return raw.decode("utf-8")

    def tenants(self) -> Dict[str, Dict[str, object]]:
        """GET /tenants: per-tenant scheduler state."""
        return self._request("GET", "/tenants")["tenants"]  # type: ignore[index]

    def submit(self, module_source: str, spec: str = "Spec",
               invariants: Sequence[str] = (),
               properties: Sequence[str] = (),
               max_states: int = 200_000,
               workers: int = 1,
               checkpoint_every: int = 1,
               level_delay: float = 0.0,
               engine: str = "explicit",
               depth: Optional[int] = None,
               retries: Optional[int] = None) -> Dict[str, object]:
        """POST /jobs.  Returns ``{"job": {...}, "disposition": ...}``.

        A 429 (queue full, or this tenant throttled) is retried up to
        *retries* times (default: the client's ``retries``), honouring
        the server's ``Retry-After`` with capped exponential backoff and
        jitter; :class:`QueueFullError` is raised once they are
        exhausted (immediately with ``retries=0``).

        ``engine``/``depth`` select the checking engine (symbolic
        requests bound-check to ``depth``); the defaults are omitted
        from the body so requests stay compatible with servers that
        predate the field.
        """
        body: Dict[str, object] = {
            "module_source": module_source,
            "spec": spec,
            "invariants": list(invariants),
            "properties": list(properties),
            "max_states": max_states,
            "workers": workers,
            "checkpoint_every": checkpoint_every,
            "level_delay": level_delay,
        }
        if engine != "explicit":
            body["engine"] = engine
        if depth is not None:
            body["depth"] = depth
        budget = self.retries if retries is None else retries
        if budget < 0:
            raise ValueError(f"retries must be >= 0, got {budget}")
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", body=body)
            except QueueFullError as exc:
                if attempt >= budget:
                    raise
                self._sleep(self._backoff_delay(attempt, exc.retry_after))
                attempt += 1

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/jobs/{job_id}")

    def list_jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/jobs")["jobs"]  # type: ignore[index]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def events(self, job_id: str,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """GET /jobs/<id>/events: yield progress events as they stream,
        until the job reaches a terminal state and the server closes the
        connection.  *timeout* bounds each read (None = client default)."""
        conn = self._connect(timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events",
                         headers=self._headers())
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    payload = json.loads(raw.decode("utf-8")) if raw else {}
                except ValueError:
                    payload = {}
                raise ServiceError(response.status,
                                   str(payload.get("error", "stream failed")),
                                   payload)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, object]:
        """Follow the job's event stream until the job is terminal;
        returns its final record.  The server ends the stream at the
        terminal state; a stream that ends before it (a draining front)
        is opened again, all within *timeout* seconds."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            remaining = deadline - time.monotonic()
            if record.get("state") in _TERMINAL_STATES:
                return record
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {record.get('state')!r} "
                    f"after {timeout:g}s")
            stream = self.events(job_id, timeout=remaining)
            try:
                for _event in stream:
                    if time.monotonic() >= deadline:
                        break
            except socket.timeout:
                pass  # a quiet job outlasted the deadline
            finally:
                stream.close()
