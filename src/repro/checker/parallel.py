"""Process-pool BFS exploration of canonical specifications.

:func:`explore_parallel` runs :func:`repro.checker.bfs.drive` under the
:class:`Pooled` configuration: the successor enumeration of each BFS
level is spread over worker processes while the *merge* stays strictly
serial, in frontier order, on the coordinator.  That makes the result
**bit-for-bit** the serial graph -- same states, node numbering, edges,
BFS parent tree (hence counterexample traces) and
:class:`~repro.checker.graph.StateSpaceExplosion` insertion -- whatever
the worker count, chunking, scheduling, **or worker failures**
(``tests/test_parallel_differential.py``,
``tests/test_fault_injection.py``).  The pool protocol is engine-blind:
both engines expand packed rows with the spec's packed walker, so the
same initializer, task and chunker serve the full engine and the
compact one.

How a level is shipped
----------------------

The frontier's payloads (packed ints) are cut into
contiguous chunks (:func:`_chunks`), submitted to a
``concurrent.futures`` process pool, and retrieved strictly in
**submission order**; results pair back to their sources positionally.

Worker-crash recovery
---------------------

A worker that dies mid-chunk (OOM kill, segfault, ``SIGKILL``) surfaces
as a broken pool; a worker that exceeds the per-chunk ``worker_timeout``
surfaces as a timeout.  Either way the coordinator tears the pool down,
spins up fresh processes, and resubmits every chunk whose result it has
not merged yet.  This cannot change the explored graph: chunk expansion
is **pure** (nothing is merged until a chunk's full result arrives),
and the merge order is the chunk submission order whatever the retry
history.  Retries are counted on
:class:`~repro.checker.stats.ExploreStats` (``worker_retries``); a chunk
that keeps failing raises :class:`WorkerFailure` after
``_MAX_CHUNK_RETRIES`` attempts.

Workers are started lazily and initialised once: each unpickles the
spec in its initializer and builds its packed walker
(:class:`~repro.kernel.packed.PackedPlan`), so the per-chunk payload is
only the frontier payloads and the per-chunk result only the successor
batches.  Worker-side busy time and coordinator idle time are
recorded on the optional :class:`~repro.checker.stats.ExploreStats`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..kernel.packed import PackedPlan
from ..spec import Spec
from .bfs import RunOptions, Serial, default_workers, resolve_options
from .explorer import _explore_full
from .graph import StateGraph
from .stats import ExploreStats

__all__ = ["explore_parallel", "default_workers", "WorkerFailure",
           "die_with_parent"]

# one payload per chunk: the frontier payloads (packed ints)
_Chunk = List[object]
# one result per chunk: (worker_pid, busy_seconds, [expanded, ...]), one
# ``expand(payload)`` result per chunk entry, in chunk order
_ChunkResult = Tuple[int, float, List[object]]
# optional fault-injection hook, called in the worker once per chunk
_FaultHook = Optional[Callable[[_Chunk], None]]

# targeted chunks per worker per level: >1 so a worker that drew cheap
# sources can pick up another chunk instead of idling at the level barrier
_CHUNKS_PER_WORKER = 4

# never cut chunks smaller than this many sources: per-task pool overhead
# (dispatch, pickling envelopes, result queueing) swamps the successor
# work for tiny chunks.  Frontiers below workers * _MIN_CHUNK are expanded
# inline by the coordinator (shipping them would cost more than computing
# them); the narrow first/last BFS levels of most systems take that path
_MIN_CHUNK = 16

# a chunk that failed this many times in a row aborts the run: by then the
# failure is systematic (the chunk itself crashes the worker), not flaky
# infrastructure, and retrying forever would loop
_MAX_CHUNK_RETRIES = 3


class WorkerFailure(Exception):
    """A frontier chunk kept crashing or timing out after all retries."""


# worker-process globals, set once by _init_worker: the spec's pure
# packed row -> successor rows walker
_worker_expand: Optional[Callable[[int], List[int]]] = None
_worker_fault: _FaultHook = None


def die_with_parent() -> None:
    """Ask the kernel to SIGKILL this process when its parent dies
    (Linux ``PR_SET_PDEATHSIG``), then re-check: the parent may have
    died before the request took, in which case exit now."""
    parent = os.getppid()
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL, 0, 0, 0)  # PDEATHSIG
    if os.getppid() != parent:
        os._exit(0)


def _init_worker(payload: bytes, fault_hook: _FaultHook = None) -> None:
    """Pool initializer: tie the worker's life to the coordinator's,
    unpickle the spec and build its packed walker once; every chunk this
    worker processes reuses it."""
    global _worker_expand, _worker_fault
    die_with_parent()
    _worker_expand = PackedPlan(pickle.loads(payload)).successors
    _worker_fault = fault_hook


def _expand_chunk(chunk: _Chunk) -> _ChunkResult:
    """Worker body: expand one frontier chunk.  Chunk entries are exact
    state identities, so no batch keys travel: the coordinator pairs
    results back to sources positionally."""
    expand = _worker_expand
    assert expand is not None, "worker used before initialization"
    if _worker_fault is not None:
        _worker_fault(chunk)
    start = perf_counter()
    batches = [expand(payload) for payload in chunk]
    return os.getpid(), perf_counter() - start, batches


def _chunks(payloads: _Chunk, workers: int) -> List[_Chunk]:
    """Cut a level's payloads into at most workers * _CHUNKS_PER_WORKER
    contiguous chunks of at least _MIN_CHUNK sources (ceil division) --
    a pure function of (len(payloads), workers), hence deterministic."""
    target = workers * _CHUNKS_PER_WORKER
    chunk_size = max(_MIN_CHUNK, -(-len(payloads) // target))
    return [payloads[i:i + chunk_size]
            for i in range(0, len(payloads), chunk_size)]


class _ChunkRunner:
    """Owns the worker pool and yields chunk results in submission order,
    retrying on worker death or per-chunk timeout.

    The pool is created lazily (a run whose frontiers all stay below the
    inline threshold never forks a process) and torn down + respawned on
    any failure; chunks whose results were already merged are never
    resubmitted, so the merge stream the coordinator sees is exactly the
    no-failure stream.
    """

    def __init__(self, workers: int, payload: bytes, ctx,
                 worker_timeout: Optional[float], fault_hook: _FaultHook,
                 stats: Optional[ExploreStats]):
        self._workers = workers
        self._payload = payload
        self._ctx = ctx
        self._timeout = worker_timeout
        self._fault_hook = fault_hook
        self._stats = stats
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(self._payload, self._fault_hook),
            )
        return self._executor

    def _teardown(self) -> None:
        """Drop the pool hard: kill worker processes (they may be hung or
        already dead) and abandon the executor."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover - racy exit
                pass
        executor.shutdown(wait=False)

    def close(self) -> None:
        self._teardown()

    def _wait_budget(self, outstanding: int) -> Optional[float]:
        """How long to wait for the next result: the per-chunk timeout
        scaled by the number of chunks each worker still has to get
        through, so queued-but-healthy chunks are not misdiagnosed."""
        if self._timeout is None:
            return None
        rounds = -(-outstanding // self._workers)  # ceil division
        return self._timeout * max(1, rounds)

    def run_level(self, chunks: List[_Chunk]) -> Iterator[_ChunkResult]:
        """Yield one result per chunk, in chunk order, retrying failures."""
        attempts = [0] * len(chunks)
        futures: Optional[List] = None
        index = 0
        while index < len(chunks):
            try:
                if futures is None:
                    # a worker can die while later chunks are still being
                    # submitted: submit then raises BrokenProcessPool too
                    executor = self._ensure()
                    submitted = [executor.submit(_expand_chunk, chunk)
                                 for chunk in chunks[index:]]
                    futures = [None] * index + submitted
                result = futures[index].result(
                    timeout=self._wait_budget(len(chunks) - index))
            except _FutureTimeout:
                futures = self._retry(index, attempts, "timeout")
                continue
            except (BrokenProcessPool, EOFError, OSError):
                futures = self._retry(index, attempts, "crash")
                continue
            yield result
            index += 1

    def _retry(self, index: int, attempts: List[int], reason: str) -> None:
        """Account one failure of chunk *index* and reset the pool; the
        caller resubmits every unmerged chunk on the fresh pool."""
        attempts[index] += 1
        if self._stats is not None:
            self._stats.record_retry(reason)
        self._teardown()
        if attempts[index] > _MAX_CHUNK_RETRIES:
            raise WorkerFailure(
                f"frontier chunk {index} failed {attempts[index]} times "
                f"(last failure: {reason}); giving up -- the chunk itself "
                f"appears to crash or hang the worker"
            )
        return None


class Pooled(Serial):
    """The process-pool configuration: a wide level's payloads are
    expanded by worker processes and merged here, in frontier order; a
    narrow one takes the serial step it inherits."""

    def __init__(self, engine, stats: Optional[ExploreStats],
                 options: RunOptions):
        super().__init__(engine, stats, options)
        self.idle = 0.0
        self._worker_ids: Dict[int, int] = {}  # pid -> dense worker id
        # fork is the cheap path where available (Linux); spawn/forkserver
        # workers rebuild everything from the pickled payload anyway
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods
                                         else methods[0])
        payload = pickle.dumps(engine.spec, protocol=pickle.HIGHEST_PROTOCOL)
        self._runner = _ChunkRunner(options.workers, payload, ctx,
                                    options.worker_timeout,
                                    options.fault_hook, stats)

    def expand_level(self, frontier: List[int]) -> List[int]:
        workers = self.options.workers
        if len(frontier) < workers * _MIN_CHUNK:
            # narrow level: expanding locally beats IPC round trips;
            # merge order (frontier order) is the serial order either way
            return super().expand_level(frontier)
        engine, stats = self.engine, self.stats
        payloads, merge = engine.payloads, engine.merge
        chunks = _chunks([payloads[src] for src in frontier], workers)
        sources = iter(frontier)
        next_frontier: List[int] = []
        wait_from = perf_counter()
        # results arrive in submission order; merging in that order
        # reproduces the serial interning order
        for pid, busy, batches in self._runner.run_level(chunks):
            self.idle += perf_counter() - wait_from
            if stats is not None:
                stats.record_worker_batch(
                    self._worker_ids.setdefault(pid, len(self._worker_ids)),
                    sources=len(batches),
                    successors=sum(map(len, batches)),
                    busy_seconds=busy,
                )
            for expanded in batches:
                next_frontier.extend(merge(next(sources), expanded))
            wait_from = perf_counter()
        return next_frontier

    def close(self) -> None:
        self._runner.close()


def local_level(engine, stats: Optional[ExploreStats],
                options: RunOptions) -> Serial:
    """The single-machine configuration *options* ask for."""
    return (Pooled if options.workers > 1 else Serial)(engine, stats, options)


def explore_parallel(
    spec: Spec,
    max_states: int = 200_000,
    workers: int = 1,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    worker_timeout: Optional[float] = None,
    fault_hook: _FaultHook = None,
) -> StateGraph:
    """The reachable state graph of ``Init ∧ □[N]_v``, explored with
    *workers* processes.

    Produces a graph identical to ``explore(spec, max_states)`` -- same
    states in the same node order, same edges, same ``init_nodes``, same
    BFS parent tree, and :class:`StateSpaceExplosion` raised at the same
    insertion -- for every worker count, even when workers crash or hang
    mid-chunk.  ``workers <= 1`` runs the serial configuration;
    ``workers=0`` is resolved by :func:`default_workers` to one worker
    per available core.

    ``worker_timeout`` bounds the seconds a worker may spend on one
    chunk; a chunk whose worker dies or exceeds the timeout is re-run on
    a fresh process (retries land in ``stats.worker_retries``), and a
    chunk failing ``_MAX_CHUNK_RETRIES`` times raises
    :class:`WorkerFailure`.  ``checkpoint`` / ``checkpoint_every``
    snapshot the run at BFS level boundaries exactly like the serial
    explorer.  ``fault_hook`` is a picklable callable invoked in the
    worker once per chunk -- the fault-injection seam the crash-recovery
    tests use; leave it ``None`` in production.

    Requesting ``workers=1`` explicitly together with options that only
    the multi-process engine honours (``worker_timeout`` /
    ``fault_hook``) is an error rather than a silent degrade; ``workers=0`` auto-sizing is exempt because it never
    resolves below the core count.
    """
    start = perf_counter()
    options = resolve_options(workers, worker_timeout, fault_hook,
                              checkpoint, checkpoint_every)
    return _explore_full(spec, max_states, stats, options, local_level,
                         start)
