"""The front's pool of check processes.

Checks are CPU-bound Python, so each runner slot of
:class:`~repro.service.jobs.JobManager` checks in a child interpreter of
its own (:class:`CheckProcess`), off the front's GIL: spawned on the
slot's first job, kept warm for the next.  The child runs
:func:`~repro.service.jobs.run_check` unchanged, writes the job's level
log itself, and stays single-threaded, so a ``workers > 1`` request can
still fork :mod:`repro.checker.parallel`'s pool inside it.

The wire is newline-delimited JSON on the child's stdin/stdout -- no
pickle, no spec object: the child re-elaborates the module source::

    front -> child   {"op": "run", "request": CheckRequest.to_dict(),
                      "checkpoint": path, "resume": bool}
                     {"op": "cancel" | "interrupt"}   (honoured at the
                                                       next BFS level)
    child -> front   {"event": "level" | "reexploring", ...fields}
                     {"outcome": "done", "result": document}
                     {"outcome": "cancelled" | "interrupted"}
                     {"outcome": "failed", "error": "Type: message"}

Nothing outlives the front (parent-death signal, exit on stdin EOF,
reaped on shutdown), and a ``workers > 1`` check's pool workers carry
the same parent-death signal, so they go with their check process.  A child that dies, or sends a frame the front
cannot read, fails its job closed; the slot's next job gets a fresh one.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import sys
import time
from typing import Callable, Dict, List, Optional

import repro
from ..checker.parallel import die_with_parent

__all__ = ["CheckProcess", "CheckFailed", "JobCancelled", "JobInterrupted"]

# result documents carry whole counterexample traces on one line
_FRAME_LIMIT = 64 * 1024 * 1024
# how long a child may take to exit on stdin EOF before it is killed
_REAP_SECONDS = 5.0


class JobCancelled(Exception):
    """The job was cancelled; the check stopped at a level boundary."""


class JobInterrupted(Exception):
    """The front is draining; the check stopped with its level log."""


class CheckFailed(Exception):
    """The check raised, or its process died or spoke garbage."""


def _frame(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


class CheckProcess:
    """One pool slot's check child, as seen from the front.

    Every method runs on the front's event loop; one job at a time."""

    # not ``-m``: the package imports this module first, so runpy would
    # execute it a second time as __main__ (a RuntimeWarning per spawn)
    command = [sys.executable, "-c",
               "import sys; from repro.service.pool import main; "
               "sys.exit(main())"]

    def __init__(self) -> None:
        self._proc: Optional[asyncio.subprocess.Process] = None
        self._reaper: Optional[asyncio.Future] = None
        self._job = None      # the Job whose run frame the child holds

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None and proc.returncode is None \
            else None

    async def run(self, job, on_event: Callable[..., None]
                  ) -> Dict[str, object]:
        """Check *job* in the child; ``on_event(event=name, **fields)``
        gets each streamed event.  Returns the result document or raises
        :class:`JobCancelled`, :class:`JobInterrupted` or
        :class:`CheckFailed`."""
        if self.pid is None:
            await self._spawn()
        proc = self._proc
        self._job = job
        try:
            self._write({"op": "run", "request": job.request.to_dict(),
                         "checkpoint": job.checkpoint_path,
                         "resume": job.resume})
            self.sync()   # a cancel or drain that came in while spawning
            message = await self._read(proc)
            while "event" in message:
                on_event(**message)
                message = await self._read(proc)
        except BaseException:
            if self._proc is proc:
                # left mid-job (the front's own error, or a cancelled
                # task): the child still holds the job, so it goes
                self.kill()
                self._proc = None
            raise
        finally:
            self._job = None
        outcome = message.get("outcome")
        if outcome == "done" and isinstance(message.get("result"), dict):
            return message["result"]
        if outcome == "cancelled":
            raise JobCancelled()
        if outcome == "interrupted":
            raise JobInterrupted()
        if outcome == "failed":
            raise CheckFailed(str(message.get("error")))
        raise await self._discard(proc, _frame(message))

    def sync(self) -> None:
        """Forward the running job's cancel/drain requests to the child
        (repeats are harmless); a no-op between jobs."""
        job = self._job
        if job is not None:
            for op, wanted in (("cancel", job.cancel_requested),
                               ("interrupt", job.interrupt_requested)):
                if wanted:
                    self._write({"op": op})

    async def close(self) -> None:
        """Reap the child: EOF on its stdin, then ``kill()`` if it has
        not exited within a bounded wait."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), _REAP_SECONDS)
            except asyncio.TimeoutError:
                proc.kill()
        if self._reaper is not None:
            await self._reaper

    def kill(self) -> None:
        """SIGKILL the child and its process group now (callable from
        any thread)."""
        pid = self.pid
        if pid is not None:
            _kill_group(pid)

    # -- internals -----------------------------------------------------------

    async def _spawn(self) -> None:
        env = dict(os.environ)
        # the child must import this very package, however the front
        # found it (an installed tree, PYTHONPATH, a test's sys.path)
        root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + (os.pathsep + path if path else "")
        # a session of its own: a terminal's Ctrl-C reaches only the
        # front, and the pool a workers > 1 check forks dies with it
        proc = self._proc = await asyncio.create_subprocess_exec(
            *self.command, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, env=env, limit=_FRAME_LIMIT,
            start_new_session=True)
        self._reaper = asyncio.ensure_future(self._reap_group(proc))

    @staticmethod
    async def _reap_group(proc: asyncio.subprocess.Process) -> None:
        """Once the child exits, nothing it forked may hold its stdout
        open (the front would never see EOF) or outlive it."""
        await proc.wait()
        _kill_group(proc.pid)

    def _write(self, payload: Dict[str, object]) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None or proc.stdin.is_closing():
            return  # the child is gone; its reader reports that
        proc.stdin.write(_frame(payload))

    async def _read(self, proc: asyncio.subprocess.Process
                    ) -> Dict[str, object]:
        try:
            line = await proc.stdout.readline()
        except ValueError:  # a frame past the limit
            raise await self._discard(proc, b"<oversized>") from None
        if not line:
            code = await proc.wait()
            self._proc = None
            raise CheckFailed(f"check process died ({_exit_text(code)})")
        try:  # a frame without its newline was cut short
            message = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:
            message = None
        if not isinstance(message, dict):
            raise await self._discard(proc, line)
        return message

    async def _discard(self, proc: asyncio.subprocess.Process,
                       frame: bytes) -> CheckFailed:
        """A child that spoke garbage cannot be trusted with the next
        job: kill it, reap it, and fail this job closed."""
        if proc.returncode is None:
            proc.kill()
        code = await proc.wait()
        self._proc = None
        return CheckFailed(f"check process sent a malformed frame "
                           f"{frame[:60]!r} and was stopped "
                           f"({_exit_text(code)})")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _exit_text(code: Optional[int]) -> str:
    if code is not None and code < 0:
        return f"signal {-code}"
    return f"exit {code}"


# -- the child ---------------------------------------------------------------


class _Inbox:
    """Frames from the front on stdin: awaited between jobs, polled at
    level boundaries.  One buffer serves both, so a frame that arrives
    early is never lost."""

    def __init__(self) -> None:
        self.eof = False
        self._buffer = b""

    def _fill(self) -> None:
        chunk = os.read(0, 1 << 16)
        self._buffer += chunk
        self.eof = not chunk

    def next(self) -> Optional[Dict[str, object]]:
        """The next frame, blocking; ``None`` at EOF."""
        while b"\n" not in self._buffer and not self.eof:
            self._fill()
        if b"\n" not in self._buffer:
            return None
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def pending(self) -> List[Dict[str, object]]:
        """Every frame already written to us, without blocking."""
        while not self.eof and select.select([0], [], [], 0)[0]:
            self._fill()
        return [self.next() for _ in range(self._buffer.count(b"\n"))]


def _check(message: Dict[str, object], inbox: _Inbox,
           send: Callable[[Dict[str, object]], None]) -> Dict[str, object]:
    """One run frame to its outcome frame."""
    from ..checker import ExploreStats
    from .jobs import CheckRequest, run_check

    controls: set = set()
    stats = ExploreStats()
    last_level = -1
    request: Optional[CheckRequest] = None

    def on_level(level: int, row: Dict[str, int]) -> None:
        nonlocal last_level
        controls.update(m.get("op") for m in inbox.pending())
        if "cancel" in controls:
            raise JobCancelled()
        if "interrupt" in controls or inbox.eof:
            raise JobInterrupted()
        if level <= last_level:
            # the pipeline restarted exploring (unreduced, after a
            # violation under reduction): levels are monotone per run
            send({"event": "reexploring", "reason": stats.por_reason})
        last_level = level
        send(dict(row, event="level", level=level))
        if request.level_delay:
            time.sleep(request.level_delay)

    stats.add_level_listener(on_level)
    try:
        request = CheckRequest.from_dict(message.get("request"))
        checkpoint = message.get("checkpoint")
        result = run_check(
            request, stats=stats,
            checkpoint=checkpoint if isinstance(checkpoint, str) else None,
            resume_from_checkpoint=bool(message.get("resume")))
    except JobCancelled:
        return {"outcome": "cancelled"}
    except JobInterrupted:
        return {"outcome": "interrupted"}
    except Exception as exc:  # the job's verdict is "failed", not us
        return {"outcome": "failed", "error": f"{type(exc).__name__}: {exc}"}
    return {"outcome": "done", "result": result}


def main() -> int:
    die_with_parent()   # a front that already died shows as stdin EOF
    inbox = _Inbox()
    try:
        # frames own the real stdout; a stray print lands on stderr
        with os.fdopen(os.dup(1), "wb") as wire:
            os.dup2(2, 1)

            def send(payload: Dict[str, object]) -> None:
                wire.write(_frame(payload))
                wire.flush()

            while True:
                message = inbox.next()
                if message is None:
                    return 0   # the front closed our stdin
                if message.get("op") == "run":   # else: a stale control
                    send(_check(message, inbox, send))
    except BrokenPipeError:
        return 0           # the front is gone; nobody to answer
