"""Stdlib-only asyncio HTTP front end for the checking service.

Routes (JSON in, JSON out, except ``/metrics``)::

    GET    /healthz          liveness + queue/cache counters
    GET    /metrics          fleet-wide Prometheus text exposition
    GET    /tenants          per-tenant scheduler state
    POST   /jobs             submit a CheckRequest body (the submitting
                             tenant rides in ``X-Repro-Tenant``)
                             -> 201 created / 200 cached-or-coalesced
                             -> 400 invalid / 429 throttled-or-full
                                (Retry-After from the tenant's bucket)
    GET    /jobs             all jobs on the state dir, oldest first
                             (including sibling processes' jobs)
    GET    /jobs/<id>        one job's metadata + result
    GET    /jobs/<id>/events NDJSON stream: buffered events replayed,
                             then live-followed until the job is
                             terminal (the connection then closes)
    DELETE /jobs/<id>        cancel (immediate when queued, cooperative
                             at the next BFS level when running; jobs
                             owned by a sibling process are flagged)

The server is deliberately minimal HTTP/1.1 (``Connection: close``, one
request per connection): it exists so ``curl`` and the bundled
:class:`~repro.service.client.ServiceClient` can drive a
:class:`~repro.service.jobs.JobManager` across processes, not to be a
general web server.  :func:`run_server` is the ``repro serve`` entry
point -- it writes a ``server.json`` endpoint file into the state
directory (so scripts can discover an ephemeral port) and turns
SIGTERM/SIGINT into a graceful drain: running jobs checkpoint at their
next BFS level and are resumed by the next server on the same state
directory.

``procs > 1`` pre-forks that many worker processes, each running the
full manager+server stack over the shared state directory.  Every child
binds the same port with ``SO_REUSEPORT`` (the kernel load-balances
accepts); on a platform without it ``procs > 1`` is refused.  The
journal, metrics directory, and sharded cache are the cross-process
seams that make this safe.  :class:`BackgroundServer` runs the whole
stack on a daemon thread for tests and embedding.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import threading
from typing import Dict, List, Optional

from ..parser import ParseError
from .jobs import (
    CheckRequest,
    JobManager,
    QueueFull,
    TenantThrottled,
    valid_job_id,
)
from .scheduler import DEFAULT_TENANT, TenantPolicy
from .wire import HttpError, read_body, read_head, send_json, send_text

__all__ = ["CheckService", "BackgroundServer", "run_server"]

_STREAM_POLL_SECONDS = 0.05
_PARENT_POLL_SECONDS = 1.0


class CheckService:
    """One listening socket serving a :class:`JobManager`."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0):
        self.manager = manager
        self.host = host
        self.port = port  # 0 = ephemeral; start() fills the real one in
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, reuse_port: bool = False) -> None:
        """Begin accepting on a fresh bind -- with *reuse_port*, our own
        ``SO_REUSEPORT`` member of a shared port group."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, reuse_port=reuse_port)
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
                await send_json(writer, 200,
                                {"jobs": self.manager.list_records()})
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                job_id, tail = rest[:-len("/events")], "events"
            else:
                job_id, tail = rest, ""
            if not valid_job_id(job_id):
                # ids become jobs/<id>.* paths downstream; anything that
                # is not a literal generated id (traversal sequences,
                # encoded slashes) is rejected before touching disk
                raise HttpError(404, f"no such job {job_id!r}")
            record = self.manager.job_record(job_id)
            if record is None:
                raise HttpError(404, f"no such job {job_id!r}")
            if tail == "events" and method == "GET":
                await self._stream_events(job_id, writer)
                return
            if tail == "" and method == "GET":
                await send_json(writer, 200, record)
                return
            if tail == "" and method == "DELETE":
                record, accepted = self.manager.cancel_any(job_id)
                await send_json(writer, 200, {
                    "id": job_id, "accepted": accepted,
                    "state": record.get("state") if record else None})
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

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        sent = 0
        while True:
            job = self.manager.get(job_id)
            if job is not None:
                # our job: events is append-only in memory, so reading
                # by index races with nothing
                while sent < len(job.events):
                    line = json.dumps(job.events[sent],
                                      separators=(",", ":"))
                    writer.write(line.encode("utf-8") + b"\n")
                    sent += 1
                terminal, drained = job.terminal, sent >= len(job.events)
            else:
                # a sibling process's job: follow its append-only
                # events file through the shared state dir
                batch = self.manager.job_events(job_id, sent) or []
                for event in batch:
                    line = json.dumps(event, separators=(",", ":"))
                    writer.write(line.encode("utf-8") + b"\n")
                    sent += 1
                record = self.manager.job_record(job_id)
                terminal = record is None or record.get("state") in (
                    "done", "failed", "cancelled")
                drained = not batch
            await writer.drain()
            if terminal and drained:
                return
            await asyncio.sleep(_STREAM_POLL_SECONDS)


def _write_endpoint_file(state_dir: str, host: str, port: int,
                         procs: int = 1) -> str:
    """Drop ``server.json`` into the state dir so scripts can discover
    an ephemeral port (the smoke tests bind port 0)."""
    path = os.path.join(state_dir, "server.json")
    payload = {"host": host, "port": port,
               "url": f"http://{host}:{port}", "pid": os.getpid(),
               "procs": procs}
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
    return path


def _serve_one(state_dir: str, host: str, port: int, pool_size: int,
               queue_limit: int, tenant_policy: Optional[TenantPolicy],
               out, reuse_port: bool = False, procs: int = 1,
               write_endpoint: bool = True,
               parent_pid: Optional[int] = None) -> int:
    """One process's serve loop: run until SIGTERM/SIGINT, then drain
    gracefully (running jobs checkpoint and requeue; a later server on
    the same *state_dir* resumes them).  Forked children also pass
    *parent_pid*: SIGKILL on the supervisor cannot be relayed, so each
    child watches for re-parenting and drains itself rather than serve
    on as an unsupervised orphan."""

    async def _amain() -> None:
        manager = JobManager(state_dir, pool_size=pool_size,
                             queue_limit=queue_limit,
                             tenant_policy=tenant_policy)
        await manager.start()
        service = CheckService(manager, host=host, port=port)
        await service.start(reuse_port=reuse_port)
        if write_endpoint:
            _write_endpoint_file(manager.state_dir, service.host,
                                 service.port, procs=procs)
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

        async def _watch_parent() -> None:
            while os.getppid() == parent_pid:
                await asyncio.sleep(_PARENT_POLL_SECONDS)
            print(f"repro service: pid {os.getpid()} lost its supervisor "
                  f"(pid {parent_pid}); draining", file=out, flush=True)
            stop.set()

        watchdog = (asyncio.get_running_loop().create_task(_watch_parent())
                    if parent_pid is not None else None)
        await stop.wait()
        if watchdog is not None:
            watchdog.cancel()
        print(f"repro service: pid {os.getpid()} draining (running jobs "
              f"checkpoint at their next level)", file=out, flush=True)
        await service.stop()
        await manager.shutdown()
        print(f"repro service: pid {os.getpid()} shut down cleanly",
              file=out, flush=True)

    asyncio.run(_amain())
    return 0


def _probe_reuseport(host: str, port: int) -> int:
    """Resolve port 0 to a concrete port for a SO_REUSEPORT group (every
    member must bind the same number).  The momentary bind-then-close
    leaves a tiny window in which another process could take the port;
    pre-forked children fail loudly on bind if that ever happens."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        return sock.getsockname()[1]
    finally:
        sock.close()


def run_server(state_dir: str, host: str = "127.0.0.1", port: int = 8123,
               pool_size: int = 2, queue_limit: int = 16,
               procs: int = 1,
               tenant_policy: Optional[TenantPolicy] = None,
               out=None) -> int:
    """The ``repro serve`` body.  ``procs == 1`` serves in this process;
    ``procs > 1`` pre-forks that many full manager+server stacks over
    the shared state directory, each binding the port with
    ``SO_REUSEPORT`` -- a usage error (``ValueError``) on a platform
    without it.  The parent relays SIGTERM/SIGINT to the children and
    waits for them to drain."""
    out = out if out is not None else sys.stdout
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    if procs == 1:
        return _serve_one(state_dir, host, port, pool_size, queue_limit,
                          tenant_policy, out)
    if not hasattr(socket, "SO_REUSEPORT"):
        raise ValueError("--procs > 1 needs SO_REUSEPORT, which this "
                         "platform lacks; serve with --procs 1")
    if port == 0:
        port = _probe_reuseport(host, port)
    state_dir = os.path.abspath(state_dir)
    os.makedirs(state_dir, exist_ok=True)
    _write_endpoint_file(state_dir, host, port, procs=procs)

    supervisor = os.getpid()
    children: List[int] = []
    for _index in range(procs):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _serve_one(state_dir, host, port, pool_size,
                                  queue_limit, tenant_policy, out,
                                  reuse_port=True, procs=procs,
                                  write_endpoint=False,
                                  parent_pid=supervisor)
            except BaseException:  # noqa: BLE001 - child must not unwind
                pass
            finally:
                os._exit(code)
        children.append(pid)

    def relay(signum: int, _frame: object) -> None:
        for child in children:
            try:
                os.kill(child, signum)
            except ProcessLookupError:
                pass

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, relay)
    print(f"repro service: parent pid {os.getpid()} supervising "
          f"{procs} processes on http://{host}:{port}", file=out,
          flush=True)
    code = 0
    remaining = set(children)
    while remaining:
        try:
            pid, status = os.wait()
        except InterruptedError:  # a relayed signal; keep waiting
            continue
        except ChildProcessError:  # pragma: no cover
            break
        remaining.discard(pid)
        child_code = os.waitstatus_to_exitcode(status)
        if child_code != 0:
            code = 1
    print(f"repro service: all {procs} processes exited", file=out,
          flush=True)
    return code


class BackgroundServer:
    """The full service stack on a daemon thread, for tests/embedding::

        with BackgroundServer(state_dir) as server:
            client = ServiceClient(server.url)
            ...

    ``stop()`` performs the same graceful drain as SIGTERM on ``repro
    serve`` -- running jobs checkpoint and persist as queued.
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
