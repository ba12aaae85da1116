"""Distributed exploration worker node (the ``repro worker`` body).

A worker node is one process holding a **partition of the visited set**
for a distributed run (see :mod:`repro.checker.distributed`): the
coordinator assigns it fingerprint ranges, ships it the spec once, and
then drives it level by level.  It deals only in packed ints and their
fingerprints.

Routes (JSON in; JSON out except ``/expand``, which streams NDJSON)::

    GET  /healthz   liveness probe: pid, partition size.  The
                    coordinator's heartbeat monitor polls this.
    POST /load      (re)initialise for a run: spec pickle (b64), worker
                    index, owned fingerprint ranges, optional fault-hook
                    pickle.  Idempotent: loading resets all partition
                    state.  A spec whose states do not pack is a 400.
    POST /ranges    replace the owned fingerprint ranges (rebalance
                    after a node loss).
    POST /expand    {"level": L, "sources": [[pos, packed], ...]} ->
                    one NDJSON line {"pos": p, "succ": [...],
                    "fps": [...]} per source -- "fps" carries each
                    successor's 64-bit fingerprint, so the coordinator's
                    routing/partition decisions never recompute them --
                    then a terminator line {"done": n, "busy": secs,
                    "pid": pid}.  Pure: expansion never touches the
                    visited partition, so the coordinator may re-send
                    sources after a retry or duplication without skew.
    POST /lookup    {"values": [packed...]} ->
                    {"nodes": [id...]} positionally aligned with the
                    request, -1 for a value this partition has not
                    seen.  Pure.
    POST /adopt     {"entries": [[packed, node], ...]}
                    inserts newly interned states into the partition.
                    Idempotent: known packed values are skipped, so a
                    duplicated or retried adopt cannot double-count.
                    Returns the partition's fingerprint-collision total.
    POST /shutdown  graceful exit.

Single-threaded by design: requests are served on the asyncio loop, and
``/expand`` does its successor enumeration *on the loop thread*, yielding
every few dozen sources so ``/healthz`` stays responsive during honest
work.  The fault-injection hook (shipped pickled via ``/load``, the
node-level analogue of the process-pool ``fault_hook`` seam in
:mod:`repro.checker.parallel`) runs on the loop thread *without*
yielding -- so a hook that hangs blocks the health endpoint too, which
is exactly what makes a hung node distinguishable from a busy one to the
coordinator's heartbeat monitor.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import pickle
import signal
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.packed import CompactUnsupported, PackedPlan
from .wire import HttpError, read_body, read_head, send_json

__all__ = ["WorkerNode", "run_worker", "write_worker_endpoint"]

# sources expanded between event-loop yields: small enough that /healthz
# answers within any sane heartbeat interval, large enough that the
# yields are noise against successor enumeration
_EXPAND_YIELD_EVERY = 64


class WorkerNode:
    """One listening socket owning one visited-set partition."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port  # 0 = ephemeral; start() fills the real one in
        self._server: Optional[asyncio.AbstractServer] = None
        self.generation = 0
        self._clear_run()

    def _clear_run(self) -> None:
        self.spec = None
        self.worker_index: Optional[int] = None
        self.ranges: List[Tuple[int, int]] = []
        self.expand: Optional[Callable[[object], List[object]]] = None
        self.fault: Optional[Callable] = None
        # partition state
        self.visited: Dict[int, int] = {}
        self._fingerprint = None
        self._fp_cache: Dict[int, int] = {}  # fingerprints are pure
        self._fps: set = set()
        self.collisions = 0

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

    # -- request handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, headers = await read_head(reader)
            body = await read_body(reader, headers)
            await self._route(method, path, body, writer)
        except HttpError as exc:
            await send_json(writer, exc.status, {"error": str(exc)})
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass  # coordinator went away mid-request
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

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            await send_json(writer, 200, {
                "ok": True, "pid": os.getpid(),
                "worker": self.worker_index, "generation": self.generation,
                "visited": len(self.visited),
                "collisions": self.collisions})
            return
        if method != "POST":
            raise HttpError(405, f"{method} not allowed on {path}")
        if path == "/load":
            await send_json(writer, 200, self._load(self._json(body)))
            return
        if path == "/ranges":
            await send_json(writer, 200, self._set_ranges(self._json(body)))
            return
        if path == "/expand":
            await self._expand(self._json(body), writer)
            return
        if path == "/lookup":
            await send_json(writer, 200, self._lookup(self._json(body)))
            return
        if path == "/adopt":
            await send_json(writer, 200, self._adopt(self._json(body)))
            return
        if path == "/shutdown":
            await send_json(writer, 200, {"ok": True, "pid": os.getpid()})
            if self._stop_requested is not None:
                self._stop_requested.set()
            return
        raise HttpError(404, f"no route for {method} {path}")

    _stop_requested: Optional[asyncio.Event] = None

    @staticmethod
    def _json(body: bytes) -> Dict:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    # -- endpoint bodies ------------------------------------------------------

    def _load(self, payload: Dict) -> Dict:
        try:
            spec = pickle.loads(base64.b64decode(payload["spec_pickle"]))
            worker_index = int(payload["worker"])
            ranges = [(int(lo), int(hi)) for lo, hi in payload["ranges"]]
            fault_pickle = payload.get("fault_pickle")
        except HttpError:
            raise
        except Exception as exc:
            raise HttpError(400, f"malformed load request: {exc}") from None
        try:
            plan = PackedPlan(spec)
        except CompactUnsupported as exc:
            raise HttpError(400, f"spec does not pack: {exc}") from None
        self._clear_run()
        self._fingerprint = plan.codec.fingerprint
        self.generation += 1
        self.spec = spec
        self.worker_index = worker_index
        self.ranges = ranges
        self.expand = plan.successors
        if fault_pickle:
            try:
                self.fault = pickle.loads(base64.b64decode(fault_pickle))
            except Exception as exc:
                raise HttpError(
                    400, f"fault hook cannot be unpickled: {exc}") from None
        return {"ok": True, "pid": os.getpid(),
                "worker": worker_index, "generation": self.generation}

    def _set_ranges(self, payload: Dict) -> Dict:
        self._require_loaded()
        try:
            self.ranges = [(int(lo), int(hi))
                           for lo, hi in payload["ranges"]]
        except Exception as exc:
            raise HttpError(400, f"malformed ranges: {exc}") from None
        return {"ok": True, "visited": len(self.visited)}

    def _require_loaded(self) -> None:
        if self.expand is None:
            raise HttpError(409, "no run loaded; POST /load first")

    async def _expand(self, payload: Dict,
                      writer: asyncio.StreamWriter) -> None:
        self._require_loaded()
        try:
            level = int(payload.get("level", -1))
            sources = payload["sources"]
        except Exception as exc:
            raise HttpError(400, f"malformed expand request: {exc}") from None
        if self.fault is not None:
            # deliberately blocking ON the loop thread: a hook that hangs
            # freezes /healthz too, which is what the chaos tests rely on
            self.fault({"worker": self.worker_index, "level": level,
                        "sources": sources})
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        expand = self.expand
        fingerprint = self._fingerprint
        cache = self._fp_cache
        start = perf_counter()
        for count, (pos, value) in enumerate(sources, start=1):
            succ = expand(value)
            # fingerprinting here (not on the coordinator) is what makes
            # the cost scale with the worker count
            fps = []
            for v in succ:
                fp = cache.get(v)
                if fp is None:
                    fp = fingerprint(v)
                    cache[v] = fp
                fps.append(fp)
            line = json.dumps({"pos": pos, "succ": succ, "fps": fps},
                              separators=(",", ":"))
            writer.write(line.encode("utf-8") + b"\n")
            if count % _EXPAND_YIELD_EVERY == 0:
                await writer.drain()
                await asyncio.sleep(0)  # keep /healthz responsive
        tail = json.dumps({"done": len(sources),
                           "busy": perf_counter() - start,
                           "pid": os.getpid()}, separators=(",", ":"))
        writer.write(tail.encode("utf-8") + b"\n")
        await writer.drain()

    def _lookup(self, payload: Dict) -> Dict:
        self._require_loaded()
        try:
            values = [int(v) for v in payload["values"]]
        except Exception as exc:
            raise HttpError(400, f"malformed lookup request: {exc}") from None
        visited = self.visited
        return {"nodes": [visited.get(value, -1) for value in values]}

    def _adopt(self, payload: Dict) -> Dict:
        self._require_loaded()
        try:
            entries = [(int(packed), int(node))
                       for packed, node in payload["entries"]]
        except Exception as exc:
            raise HttpError(400, f"malformed adopt request: {exc}") from None
        visited = self.visited
        fingerprint = self._fingerprint
        cache = self._fp_cache
        adopted = known = 0
        for packed, node in entries:
            if packed in visited:  # idempotence under duplication/retry
                known += 1
                continue
            visited[packed] = node
            adopted += 1
            fp = cache.get(packed)
            if fp is None:
                fp = fingerprint(packed)
                cache[packed] = fp
            if fp in self._fps:
                self.collisions += 1
            else:
                self._fps.add(fp)
        return {"adopted": adopted, "known": known,
                "collisions": self.collisions, "visited": len(visited)}


def write_worker_endpoint(path: str, node: WorkerNode) -> str:
    """Atomically drop an endpoint file so spawners can discover an
    ephemeral port (same shape as the service's ``server.json``)."""
    payload = {"host": node.host, "port": node.port,
               "url": node.url, "pid": os.getpid()}
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
    return path


def run_worker(host: str = "127.0.0.1", port: int = 0,
               endpoint_file: Optional[str] = None, out=None) -> int:
    """The ``repro worker`` body: serve until SIGTERM/SIGINT or a
    ``POST /shutdown``.

    Workers are intentionally stateless across runs -- every run starts
    with a fresh ``/load`` -- so there is nothing to drain: shutdown is
    immediate.  Any in-flight coordinator request surfaces there as a
    connection error, i.e. a node loss, which the coordinator's
    rebalancing machinery already handles.
    """
    out = out if out is not None else sys.stdout

    async def _amain() -> None:
        node = WorkerNode(host=host, port=port)
        await node.start()
        stop = asyncio.Event()
        node._stop_requested = stop
        if endpoint_file:
            write_worker_endpoint(endpoint_file, node)
        print(f"repro worker: listening on {node.url} (pid {os.getpid()})",
              file=out, flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(signum, lambda *_args: stop.set())
        await stop.wait()
        await node.stop()
        print("repro worker: shut down", file=out, flush=True)

    asyncio.run(_amain())
    return 0
