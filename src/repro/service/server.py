"""Stdlib-only asyncio HTTP front end for the checking service.

Routes (JSON in, JSON out, except ``/metrics``)::

    GET    /healthz          liveness + queue/cache counters and the
                             pool's check-process pids
    GET    /metrics          Prometheus text exposition
    GET    /tenants          per-tenant scheduler state
    POST   /jobs             submit a CheckRequest body (the submitting
                             tenant rides in ``X-Repro-Tenant``)
                             -> 201 created / 200 cached-or-coalesced
                             -> 400 invalid / 429 throttled-or-full
                                (Retry-After from the tenant's bucket)
    GET    /jobs             all jobs on the state dir, oldest first
    GET    /jobs/<id>        one job's metadata + result
    GET    /jobs/<id>/events NDJSON stream: buffered events replayed,
                             then live-followed until the job is
                             terminal (the connection then closes)
    DELETE /jobs/<id>        cancel (immediate when queued, cooperative
                             at the next BFS level when running)

The server is deliberately minimal HTTP/1.1 (``Connection: close``, one
request per connection): it exists so ``curl`` and the bundled
:class:`~repro.service.client.ServiceClient` can drive a
:class:`~repro.service.jobs.JobManager` across processes, not to be a
general web server.  :func:`run_server` is the ``repro serve`` entry
point -- it writes a ``server.json`` endpoint file into the state
directory (so scripts can discover an ephemeral port) and turns
SIGTERM/SIGINT into a graceful drain: running jobs checkpoint at their
next BFS level and are resumed by the next server on the same state
directory.  One front serves a state directory; its checks run in the
manager's pool of check processes (:mod:`repro.service.pool`), so the
front's own thread only routes.  :class:`BackgroundServer` runs the
whole stack on a daemon thread for tests and embedding.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
from typing import Dict, Optional

from .. import records
from ..parser import ParseError
from .jobs import (
    CheckRequest,
    Job,
    JobManager,
    QueueFull,
    TenantThrottled,
    valid_job_id,
)
from .scheduler import DEFAULT_TENANT, TenantPolicy
from .wire import HttpError, read_body, read_head, send_json, send_text

__all__ = ["CheckService", "BackgroundServer", "run_server"]

class CheckService:
    """One listening socket serving a :class:`JobManager`."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0):
        self.manager = manager
        self.host = host
        self.port = port  # 0 = ephemeral; start() fills the real one in
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, headers = await read_head(reader)
            if headers.get("expect", "").lower() == "100-continue":
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
            body = await read_body(reader, headers)
            await self._route(method, path, headers, body, writer)
        except HttpError as exc:
            await send_json(writer, exc.status, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # never kill the accept loop
            try:
                await send_json(writer, 500,
                                {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            await send_json(writer, 200, self.manager.health())
            return
        if path == "/metrics" and method == "GET":
            await send_text(writer, 200, self.manager.metrics_text())
            return
        if path == "/tenants" and method == "GET":
            await send_json(writer, 200,
                            {"tenants": self.manager.tenants()})
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(headers, body, writer)
                return
            if method == "GET":
                await send_json(writer, 200, {"jobs": [
                    job.to_dict() for job in self.manager.jobs()]})
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                job_id, tail = rest[:-len("/events")], "events"
            else:
                job_id, tail = rest, ""
            # a literal generated id or nothing: traversal sequences and
            # encoded slashes never reach a lookup
            job = self.manager.get(job_id) if valid_job_id(job_id) else None
            if job is None:
                raise HttpError(404, f"no such job {job_id!r}")
            if tail == "events" and method == "GET":
                await self._stream_events(job, writer)
                return
            if tail == "" and method == "GET":
                await send_json(writer, 200, job.to_dict())
                return
            if tail == "" and method == "DELETE":
                job, accepted = self.manager.cancel(job_id)
                await send_json(writer, 200, {
                    "id": job_id, "accepted": accepted,
                    "state": job.state})
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no route for {method} {path}")

    async def _submit(self, headers: Dict[str, str], body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        tenant = headers.get("x-repro-tenant", DEFAULT_TENANT)
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "body is not valid JSON") from None
        try:
            request = CheckRequest.from_dict(payload)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        try:
            # parse/elaborate on an executor thread: a pathological
            # module_source must not block the event loop (and with it
            # /healthz and /metrics) for every other connection
            await asyncio.get_running_loop().run_in_executor(
                None, self.manager.validate_request, request)
            job, disposition = self.manager.submit(request, tenant=tenant,
                                                   prevalidated=True)
        except QueueFull as exc:
            payload = {"error": str(exc), "retry_after": exc.retry_after}
            if isinstance(exc, TenantThrottled):
                payload["tenant"] = exc.tenant
                payload["reason"] = exc.reason
            await send_json(
                writer, 429, payload,
                extra_headers={"Retry-After": str(int(exc.retry_after + 0.5))})
            return
        except (ParseError, ValueError) as exc:  # fails to parse/elaborate
            raise HttpError(400, str(exc)) from None
        except KeyError as exc:  # unknown spec/invariant/property name
            raise HttpError(400, str(exc)) from None
        status = 201 if disposition == "created" else 200
        await send_json(writer, status, {
            "job": job.to_dict(), "disposition": disposition})

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        sent = 0
        while True:
            # events is append-only, so reading by index races with
            # nothing; the wake-up is taken first, so an event appended
            # while this pass writes is not slept through
            appended = job.appended()
            terminal = job.terminal
            while sent < len(job.events):
                line = json.dumps(job.events[sent], separators=(",", ":"))
                writer.write(line.encode("utf-8") + b"\n")
                sent += 1
            await writer.drain()
            if terminal:
                return
            await appended.wait()


def _write_endpoint_file(state_dir: str, host: str, port: int) -> str:
    """Drop ``server.json`` into the state dir so scripts can discover
    an ephemeral port (the smoke tests bind port 0)."""
    path = os.path.join(state_dir, "server.json")
    records.atomic_replace(path, records.encode(
        {"host": host, "port": port, "url": f"http://{host}:{port}",
         "pid": os.getpid()}), fsync=False)
    return path


def run_server(state_dir: str, host: str = "127.0.0.1", port: int = 8123,
               pool_size: int = 2, queue_limit: int = 16,
               tenant_policy: Optional[TenantPolicy] = None,
               out=None) -> int:
    """The ``repro serve`` body: serve until SIGTERM/SIGINT, then drain
    gracefully (running jobs checkpoint and requeue; a later server on
    the same *state_dir* resumes them).  Raises :class:`StateDirBusy`
    when another front holds *state_dir*."""
    out = out if out is not None else sys.stdout

    async def _amain() -> None:
        manager = JobManager(state_dir, pool_size=pool_size,
                             queue_limit=queue_limit,
                             tenant_policy=tenant_policy)
        await manager.start()
        service = CheckService(manager, host=host, port=port)
        await service.start()
        _write_endpoint_file(manager.state_dir, service.host, service.port)
        print(f"repro service: pid {os.getpid()} listening on "
              f"{service.url} (state in {manager.state_dir}, "
              f"pool {pool_size}, queue limit {queue_limit})",
              file=out, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(signum, lambda *_args: stop.set())
        await stop.wait()
        print(f"repro service: pid {os.getpid()} draining (running jobs "
              f"checkpoint at their next level)", file=out, flush=True)
        await service.stop()
        await manager.shutdown()
        print(f"repro service: pid {os.getpid()} shut down cleanly",
              file=out, flush=True)

    asyncio.run(_amain())
    return 0


class BackgroundServer:
    """The full service stack on a daemon thread, for tests/embedding::

        with BackgroundServer(state_dir) as server:
            client = ServiceClient(server.url)
            ...

    ``stop()`` performs the same graceful drain as SIGTERM on ``repro
    serve`` -- running jobs checkpoint and are journaled as queued, and every
    check process is reaped.
    """

    def __init__(self, state_dir: str, host: str = "127.0.0.1",
                 port: int = 0, pool_size: int = 2, queue_limit: int = 16,
                 tenant_policy: Optional[TenantPolicy] = None):
        self._args = (state_dir, host, port, pool_size, queue_limit,
                      tenant_policy)
        self.manager: Optional[JobManager] = None
        self.service: Optional[CheckService] = None
        self.url: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread did not come up in 30s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}") from self._error
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60)
        if self._thread.is_alive():  # pragma: no cover - hung drain
            self.manager.kill_check_processes()
            raise RuntimeError("service thread did not drain in 60s")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        (state_dir, host, port, pool_size, queue_limit,
         tenant_policy) = self._args
        try:
            self.manager = JobManager(state_dir, pool_size=pool_size,
                                      queue_limit=queue_limit,
                                      tenant_policy=tenant_policy)
            await self.manager.start()
            self.service = CheckService(self.manager, host=host, port=port)
            await self.service.start()
            self.url = self.service.url
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()
        await self.manager.shutdown()
