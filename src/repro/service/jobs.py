"""The checking service's job manager.

A :class:`JobManager` admits :class:`CheckRequest` submissions, runs
them on a bounded pool of explorer runs, and carries each through the
per-job state machine::

    queued -> running -> done | failed | cancelled

* **Admission control / backpressure** -- at most ``queue_limit`` jobs
  may sit in ``queued``; a submission beyond that raises
  :class:`QueueFull` carrying a retry-after hint derived from recent
  run times, which the HTTP layer turns into ``429 Retry-After``.
* **Content-addressed caching** -- a submission whose fingerprint (see
  :func:`repro.service.cache.canonical_fingerprint`) already has a
  cached result completes instantly with ``cache_hit=True`` and the
  cached verdict/trace/stats; a submission identical to a job currently
  queued or running is *coalesced* onto that job, so N clients
  submitting the same check cost one exploration.
* **Progress events** -- each job accumulates an append-only NDJSON
  event list (``queued``/``started``/``level``/``done``/...); the
  per-level rows come straight from the explorer through
  :meth:`repro.checker.stats.ExploreStats.add_level_listener`, so a
  watcher sees live frontier/state/edge counts.
* **Check processes** -- each pool slot runs its jobs in a child
  interpreter of its own (:mod:`repro.service.pool`), off the front's
  GIL, through the check pipeline of :mod:`repro.engine`
  (:func:`run_check` renders its outcome as the result document).
* **Cancellation and graceful shutdown** -- both ride the same seam:
  the child's level listener raises at the next BFS level boundary.  A
  cancelled job ends ``cancelled``; an interrupted one (server
  shutdown) drops back to ``queued`` with its latest checkpoint on
  disk, is journaled ``requeued``, and a restarted manager resumes it
  bit-for-bit -- same verdict, same trace, same graph digest.
* **Multi-tenancy and fair dispatch** -- submissions carry a tenant
  name; :mod:`repro.service.scheduler` rate-limits and bounds each
  tenant and dispatches deficit-round-robin so no tenant starves the
  rest.  429s carry the rejected tenant's own Retry-After.
* **Durability** -- the :mod:`repro.service.journal` is the one
  durable job store: each transition is one appended line.  A starting
  manager folds it to rebuild every job (a finished job's result comes
  back from the result cache), re-admits the unfinished ones exactly
  once, and sets the admission counters of the
  :mod:`repro.service.metrics` registry from the same fold, so
  ``GET /metrics`` reconciles with the journal by construction:
  admitted == completed + failed + cancelled + in-flight, across
  restarts.

Everything the manager needs to survive a restart lives under its
``state_dir``, which one front holds at a time (``front.lock``):
``journal/`` the job store, ``jobs/<id>.events.ndjson`` event logs,
``jobs/<id>.ckpt`` exploration checkpoints, and ``cache/`` the sharded
result store.  Files an older front left there (``jobs/<id>.json``
records, ``metrics/snapshot.json``) are ignored: the journal holds
every transition they recorded.
"""

from __future__ import annotations

import asyncio
import fcntl
import os
import re
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import records
from ..checker import ExploreStats, StateSpaceExplosion
from ..checker import digest_of_graph as graph_digest
from ..checker.checkpoint import counterexample_to_portable
from ..parser import load_module
from .cache import ShardedResultCache, canonical_fingerprint, source_digest
from .journal import JobJournal
from .metrics import MetricsRegistry
from .pool import CheckFailed, CheckProcess, JobCancelled, JobInterrupted
from .scheduler import (
    DEFAULT_TENANT,
    FairScheduler,
    QueueFull,
    TenantPolicy,
    TenantThrottled,
    valid_tenant,
)

__all__ = [
    "CheckRequest",
    "Job",
    "JobManager",
    "QueueFull",
    "TenantThrottled",
    "JobCancelled",
    "StateDirBusy",
    "run_check",
    "graph_digest",
    "valid_job_id",
    "MAX_MODULE_SOURCE",
]

# job ids are uuid4().hex[:12]; anything else arriving over the wire is
# at best a typo and at worst a path-traversal probe, since ids are
# joined into jobs/<id>.events.ndjson / .ckpt paths
_JOB_ID_RE = re.compile(r"[0-9a-f]{12}")

# module_source travels in every journal `submitted` line and is parsed
# synchronously at admission; bound it well below the HTTP body cap
MAX_MODULE_SOURCE = 1024 * 1024

# the first bytes of a jobs/<id>.events.ndjson record log
EVENTS_MAGIC = b"repro job events\n"

# fold the journal once its log outgrows this: shutdown() compacts on a
# graceful drain, but a SIGKILLed or long-lived process never gets
# there, and the log must track the live job population, not uptime
JOURNAL_COMPACT_BYTES = 256 * 1024


def valid_job_id(job_id: object) -> bool:
    """True iff *job_id* has the exact shape the manager generates --
    the gate every disk path derived from a wire-supplied id goes
    through."""
    return isinstance(job_id, str) and _JOB_ID_RE.fullmatch(job_id) is not None

# verdicts that are pure functions of the request and therefore cacheable;
# "failed" (an exception) is deliberately not -- it may be environmental.
# "unknown" (symbolic, no violation within the bound) is a pure function
# of (module, invariants, depth) -- the depth is part of the cache key
_CACHEABLE_VERDICTS = ("ok", "violation", "explosion", "unknown")

_TERMINAL_STATES = ("done", "failed", "cancelled")


class StateDirBusy(RuntimeError):
    """Another live front holds the state directory."""


@dataclass(frozen=True)
class CheckRequest:
    """One check submission: a module plus what to verify and how.

    ``module_source``/``spec``/``invariants``/``properties``/
    ``max_states``/``engine``/``depth`` are
    *semantic* -- they address the result in the cache.  ``workers``,
    ``checkpoint_every``, and ``level_delay``
    are execution-only: the engine produces the identical graph and
    verdict for any value (``level_delay`` merely sleeps between BFS
    levels -- a pacing knob so demos and tests can watch or interrupt
    toy modules that would otherwise finish in microseconds).

    ``engine`` selects the checking engine: ``"explicit"`` (default)
    explores exhaustively; ``"symbolic"`` bounded-model-checks to
    ``depth`` steps (a clean run's verdict is ``"unknown"``, never
    ``"ok"``).  ``depth`` is only meaningful -- and only part of the
    cache key -- with the symbolic engine.

    Which explicit engine explores is not a field: :func:`run_check`
    asks :func:`~repro.engine.explicit.choose_mode`.  The boolean
    fields in ``_RETIRED``, which requests once carried (an engine
    choice, and partial-order reduction), are accepted and dropped, so
    journals and clients from before still load; a queued job that
    asked for reduction runs unreduced, which reduction guaranteed
    gives the same verdict and trace.
    """

    module_source: str
    spec: str = "Spec"
    invariants: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    max_states: int = 200_000
    workers: int = 1
    checkpoint_every: int = 1
    level_delay: float = 0.0
    engine: str = "explicit"
    depth: Optional[int] = None

    _FIELDS = ("module_source", "spec", "invariants", "properties",
               "max_states", "workers",
               "checkpoint_every", "level_delay", "engine", "depth")
    # accepted for compatibility, then dropped
    _RETIRED = ("compact", "por")

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CheckRequest":
        """Validate and build a request from a JSON body; raises
        ``ValueError`` with a client-presentable message on bad input."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(payload) - set(cls._FIELDS) - set(cls._RETIRED)
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        module_source = payload.get("module_source")
        if not isinstance(module_source, str) or not module_source.strip():
            raise ValueError("module_source must be a non-empty string")
        if len(module_source) > MAX_MODULE_SOURCE:
            raise ValueError(
                f"module_source is {len(module_source)} characters; the "
                f"service accepts at most {MAX_MODULE_SOURCE}")
        spec = payload.get("spec", "Spec")
        if not isinstance(spec, str) or not spec:
            raise ValueError("spec must be a non-empty string")

        def names(key: str) -> Tuple[str, ...]:
            value = payload.get(key, ())
            if isinstance(value, str):
                value = (value,)
            if (not isinstance(value, (list, tuple))
                    or not all(isinstance(v, str) and v for v in value)):
                raise ValueError(f"{key} must be a list of definition names")
            return tuple(value)

        def bounded_int(key: str, default: int, minimum: int) -> int:
            value = payload.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(f"{key} must be an integer >= {minimum}")
            return value

        level_delay = payload.get("level_delay", 0.0)
        if not isinstance(level_delay, (int, float)) \
                or isinstance(level_delay, bool) or level_delay < 0 \
                or level_delay > 10:
            raise ValueError("level_delay must be a number in [0, 10]")
        for retired in cls._RETIRED:
            if not isinstance(payload.get(retired, False), bool):
                raise ValueError(f"{retired} must be a boolean")
        engine = payload.get("engine", "explicit")
        if engine not in ("explicit", "symbolic"):
            raise ValueError("engine must be 'explicit' or 'symbolic'")
        depth = payload.get("depth")
        if depth is not None and (not isinstance(depth, int)
                                  or isinstance(depth, bool) or depth < 1):
            raise ValueError("depth must be an integer >= 1")
        if depth is not None and engine != "symbolic":
            raise ValueError("depth is the symbolic unrolling bound; it "
                             "requires engine='symbolic'")
        if engine == "symbolic":
            if names("properties"):
                raise ValueError(
                    "engine='symbolic' is incompatible with properties: "
                    "bounded model checking never builds the state "
                    "graph that option configures")
            if not names("invariants"):
                raise ValueError("engine='symbolic' needs at least one "
                                 "invariant to bound-check")
        return cls(
            module_source=module_source,
            spec=spec,
            invariants=names("invariants"),
            properties=names("properties"),
            max_states=bounded_int("max_states", 200_000, 1),
            workers=bounded_int("workers", 1, 0),
            checkpoint_every=bounded_int("checkpoint_every", 1, 1),
            level_delay=float(level_delay),
            engine=engine,
            depth=depth,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "module_source": self.module_source,
            "spec": self.spec,
            "invariants": list(self.invariants),
            "properties": list(self.properties),
            "max_states": self.max_states,
            "workers": self.workers,
            "checkpoint_every": self.checkpoint_every,
            "level_delay": self.level_delay,
            "engine": self.engine,
            "depth": self.depth,
        }

    def semantic_config(self) -> Dict[str, object]:
        """The slice of the request that can change the result -- the
        cache key covers exactly this (plus module source and spec).

        ``engine`` is always part of the key: an explicit "ok" and a
        symbolic "unknown" are different answers to the same module.
        ``depth`` joins it only for the symbolic engine, where it bounds
        the search; for the explicit engine it cannot change the result
        and must not fragment the cache.
        """
        config: Dict[str, object] = {
            "invariants": list(self.invariants),
            "properties": list(self.properties),
            "max_states": self.max_states,
            "engine": self.engine,
        }
        if self.engine == "symbolic":
            from ..engine import DEFAULT_DEPTH

            config["depth"] = (self.depth if self.depth is not None
                               else DEFAULT_DEPTH)
        return config

    def fingerprint(self) -> str:
        return canonical_fingerprint(self.module_source, self.spec,
                                     self.semantic_config())


def _explicit_engine(request: CheckRequest, checkpoint: Optional[str],
                     resume_from_checkpoint: bool):
    """The explicit engine *request* asks for, in the mode
    :func:`~repro.engine.explicit.choose_mode` picks -- a pure function
    of request and checkpoint, so a resumed job continues on the engine
    its checkpoint was written by."""
    from ..engine import ExplicitEngine, choose_mode

    resuming = (resume_from_checkpoint and checkpoint is not None
                and os.path.exists(checkpoint))
    mode = choose_mode(checkpoint if resuming else None)
    return ExplicitEngine(mode,
                          max_states=request.max_states,
                          workers=request.workers,
                          checkpoint=checkpoint,
                          checkpoint_every=request.checkpoint_every,
                          resume=resuming)


def _check_record(kind: str, res) -> Dict[str, object]:
    """One obligation's entry in a result document."""
    return {
        "kind": kind,
        "name": res.name,
        "ok": res.ok,
        "summary": res.summary(),
        "counterexample": (counterexample_to_portable(res.counterexample)
                           if res.counterexample is not None else None),
    }


def run_check(
    request: CheckRequest,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    resume_from_checkpoint: bool = False,
) -> Dict[str, object]:
    """Execute one check request to a result document (the unit the
    cache stores).  :mod:`repro.engine` explores (fresh, or resumed from
    *checkpoint* when *resume_from_checkpoint*) and checks; this renders
    the outcome as JSON, a blown budget as the verdict ``"explosion"``.

    A symbolic request answers ``"violation"`` or ``"unknown"`` -- never
    ``"ok"``, a bounded pass proves nothing about deeper states.  It has
    no BFS levels, so it emits no ``level`` events and runs to completion
    once started; a spec the translation cannot handle falls back to the
    explicit engine with a note.
    """
    from ..engine import (
        VIOLATION,
        SolveStats,
        SymbolicEngine,
        SymbolicUnsupported,
        resolve_request,
    )

    spec, label, invariants, properties = resolve_request(
        load_module(request.module_source), request.spec,
        request.invariants, request.properties)
    notes: List[str] = []
    document: Dict[str, object] = {
        "verdict": None, "label": label, "checks": [],
        "states": None, "edges": None, "stutter": None,
        "graph_digest": None, "notes": notes, "error": None, "stats": None}
    if request.engine == "symbolic":
        engine, solve_stats = SymbolicEngine(depth=request.depth), SolveStats()
        try:
            results = engine.check_obligations(spec, invariants,
                                               stats=solve_stats)
        except SymbolicUnsupported as exc:
            notes.append(f"symbolic engine unavailable for this spec "
                         f"({exc}); ran the full explicit engine")
        else:
            document.update(
                verdict=("violation" if any(
                    res.verdict == VIOLATION for res in results)
                    else "unknown"),
                # ok is always False here: VIOLATION or UNKNOWN
                checks=[dict(_check_record("invariant", res),
                             verdict=res.verdict) for res in results],
                engine=engine.name, depth=engine.depth,
                stats=solve_stats.as_dict())
            return document
    if stats is None:
        stats = ExploreStats()
    run = _explicit_engine(request, checkpoint,
                           resume_from_checkpoint).run(
        spec, invariants, properties, stats)
    try:
        with run:
            graph = run.graph
            document.update(
                verdict="ok" if run.ok else "violation",
                checks=[_check_record(kind, res)
                        for kind, res in run.results],
                states=graph.state_count, edges=graph.edge_count,
                stutter=graph.stutter_count,
                graph_digest=graph_digest(graph))
    except StateSpaceExplosion as exc:
        document.update(verdict="explosion", error=str(exc))
    document["stats"] = stats.as_dict()
    return document


class Job:
    """One submission moving through the service's state machine.

    ``request`` is ``None`` only for a finished job rebuilt from the
    journal: nothing reads a terminal job's request."""

    def __init__(self, job_id: str, request: Optional[CheckRequest],
                 fingerprint: str, checkpoint_path: Optional[str] = None,
                 tenant: str = DEFAULT_TENANT):
        self.id = job_id
        self.request = request
        self.fingerprint = fingerprint
        self.checkpoint_path = checkpoint_path
        self.tenant = tenant
        self.state = "queued"
        self.cache_hit = False
        self.resume = False          # continue from checkpoint when run
        self.coalesced = 0           # extra submissions attached to this job
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, object]] = []
        self._appended: Optional[asyncio.Event] = None
        self.cancel_requested = False
        self.interrupt_requested = False
        # jobs/<id>.events.ndjson, which a restarted front reloads
        self.events_path: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def appended(self) -> asyncio.Event:
        """An event the next :meth:`emit` sets.  Made on demand, inside
        the watcher's running loop: on Python 3.9 an asyncio primitive
        binds to the loop current when it is constructed."""
        if self._appended is None:
            self._appended = asyncio.Event()
        return self._appended

    def emit(self, event: str, **fields: object) -> None:
        """Append one progress event and wake its watchers (they read
        by index)."""
        record: Dict[str, object] = {
            "event": event, "job": self.id, "seq": len(self.events),
            "t": round(time.time(), 4),
        }
        record.update(fields)
        self.events.append(record)
        appended, self._appended = self._appended, None
        if appended is not None:
            appended.set()
        if self.events_path is not None:
            try:
                records.append(self.events_path, EVENTS_MAGIC, record,
                               fsync=False)
            except OSError:  # pragma: no cover - events are best-effort
                pass

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "state": self.state,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "resume": self.resume,
            "coalesced": self.coalesced,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "result": self.result,
            "error": self.error,
            "events": len(self.events),
        }


class JobManager:
    """Admit, queue, execute, cancel, journal, and resume check jobs.

    All public methods are called on the event-loop thread; the
    exploration itself runs in the pool slots' check processes,
    reporting back only through the job's event stream and outcome.
    ``pool_size`` bounds concurrent explorations (one check process
    each), ``queue_limit`` the jobs waiting in ``queued`` (global
    admission control), and ``tenant_policy`` the per-tenant quotas and
    rates enforced within it.  Dispatch is deficit-round-robin across
    tenants.

    One started manager holds its ``state_dir`` exclusively: a second
    :meth:`start` on it raises :class:`StateDirBusy` naming the holder's
    pid.  So every unfinished job a starting manager finds was left by
    a front that has exited, and it re-admits all of them.
    """

    def __init__(self, state_dir: str, pool_size: int = 2,
                 queue_limit: int = 16,
                 tenant_policy: Optional[TenantPolicy] = None,
                 cache_max_entries: Optional[int] = 4096,
                 cache_max_bytes: Optional[int] = None):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.state_dir = os.path.abspath(state_dir)
        self.pool_size = pool_size
        self.queue_limit = queue_limit
        self.jobs_dir = os.path.join(self.state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.journal = JobJournal(os.path.join(self.state_dir, "journal"))
        self.registry = MetricsRegistry()
        self._init_metrics()
        self.cache = ShardedResultCache(
            os.path.join(self.state_dir, "cache"),
            max_entries=cache_max_entries, max_bytes=cache_max_bytes,
            on_event=self._cache_event)
        source_digest()  # every cache key carries it: hash the sources now
        self.scheduler = FairScheduler(tenant_policy)
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # fingerprint -> live job id
        self._wake: Optional[asyncio.Event] = None
        self._slots: List[CheckProcess] = []
        self._running: Dict[str, CheckProcess] = {}  # job id -> its slot
        self._runners: List[asyncio.Task] = []
        self._lock_file = None
        self._accepting = False
        self._interrupting = False
        self._stopping = False
        self._compacting = False
        self._recent_runtimes: List[float] = []
        self.started_at = time.time()

    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_admitted = reg.counter(
            "repro_jobs_admitted_total",
            "Submissions admitted (queued, or served from cache)",
            ("tenant",))
        self._m_completed = reg.counter(
            "repro_jobs_completed_total",
            "Jobs finished with a verdict", ("tenant", "verdict"))
        self._m_failed = reg.counter(
            "repro_jobs_failed_total",
            "Jobs that raised instead of producing a verdict", ("tenant",))
        self._m_cancelled = reg.counter(
            "repro_jobs_cancelled_total", "Jobs cancelled", ("tenant",))
        self._m_rejected = reg.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected with 429", ("tenant", "reason"))
        self._m_coalesced = reg.counter(
            "repro_jobs_coalesced_total",
            "Submissions coalesced onto an identical live job", ("tenant",))
        self._m_engine = reg.counter(
            "repro_engine_jobs_total", "Completed jobs per engine",
            ("engine",))
        self._m_cache = {
            kind: reg.counter(f"repro_cache_{kind}_total",
                              f"Result cache {kind}")
            for kind in ("hits", "misses", "evictions")}
        self._m_queue_depth = reg.gauge(
            "repro_queue_depth", "Jobs waiting in the queue")
        self._m_running = reg.gauge(
            "repro_jobs_running", "Jobs currently executing")
        self._m_latency = reg.histogram(
            "repro_job_latency_seconds",
            "Submit-to-finish latency per tenant", ("tenant",))

    def _cache_event(self, kind: str, amount: int) -> None:
        self._m_cache[kind].default.inc(amount)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Take the state directory, rebuild the journaled jobs
        (claiming the unfinished ones) and start the runner pool; each
        slot spawns its check process on its first job."""
        self._hold_state_dir()
        self._wake = asyncio.Event()
        self._accepting = True
        self._interrupting = False
        self._stopping = False
        try:
            self._recover()
        except BaseException:  # a damaged journal: let go of the dir
            self._lock_file.close()
            raise
        self._set_gauges()
        loop = asyncio.get_running_loop()
        self._slots = [CheckProcess() for _ in range(self.pool_size)]
        self._runners = [loop.create_task(self._runner(slot))
                         for slot in self._slots]

    def _hold_state_dir(self) -> None:
        """One front per state directory: an exclusive ``flock`` on
        ``front.lock`` until :meth:`shutdown`, which the kernel drops
        when the process dies, SIGKILL included."""
        handle = open(os.path.join(self.state_dir, "front.lock"), "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.seek(0)
            holder = handle.read().strip() or "unknown"
            handle.close()
            raise StateDirBusy(f"state directory {self.state_dir} is held "
                               f"by the front with pid {holder}") from None
        handle.truncate(0)
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._lock_file = handle

    def _recover(self) -> None:
        """Rebuild every journaled job and re-admit the unfinished ones.

        This front holds the state directory, so each queued or running
        job found here was left by a front that has exited: it is
        claimed with a journal ``claimed`` record and queued again,
        rebuilt from the request its ``submitted`` line carries.  A
        finished job needs no request; its result is the cache entry
        for its fingerprint (only the journaled verdict once that entry
        is evicted).  The same fold sets the admission counters, so
        ``/metrics`` adds up across any restart.  The journal is
        compacted first, so no append lands behind a torn frame or in
        an older front's NDJSON log."""
        self.journal.compact()
        for job_id, entry in sorted(self.journal.replay().items()):
            state = entry.get("state")
            if not valid_job_id(job_id) or state is None:
                continue
            tenant = entry.get("tenant") or DEFAULT_TENANT
            self._fold_counters(tenant, entry)
            terminal = state in _TERMINAL_STATES
            request = None
            if not terminal or not entry.get("fingerprint"):
                try:
                    request = CheckRequest.from_dict(entry.get("request"))
                except ValueError:
                    continue
            job = self._job(job_id, request, str(entry.get("fingerprint")
                                                 or request.fingerprint()),
                            tenant)
            job.created = float(entry.get("first_t") or job.created)
            job.started = entry.get("started_t")
            job.cache_hit = bool(entry.get("cache_hit"))
            job.resume = bool(entry.get("resume"))
            job.coalesced = int(entry.get("coalesced") or 0)
            try:
                job.events = records.read(job.events_path,
                                          EVENTS_MAGIC).records
            except FileNotFoundError:
                job.events = []
            self._jobs[job_id] = job
            if terminal:
                job.state = state
                job.finished = entry.get("last_t")
                job.error = entry.get("error")
                if state == "done":
                    job.result = (self.cache.peek(job.fingerprint)
                                  or {"verdict": entry.get("verdict")})
                continue
            # rewritten framed: no append behind a torn tail or NDJSON
            records.atomic_replace(job.events_path, EVENTS_MAGIC + b"".join(
                map(records.frame, job.events)), fsync=False)
            job.resume = os.path.exists(job.checkpoint_path)
            job.emit("requeued", resume=job.resume)
            self.journal.append("claimed", job_id, tenant=tenant)
            self._inflight[job.fingerprint] = job.id
            self.scheduler.push(tenant, job_id)

    def _fold_counters(self, tenant: str, entry: Dict[str, object]) -> None:
        """Add one journaled job's transitions to the admission
        counters (the others count this front's lifetime only)."""
        counts = entry.get("counts") or {}
        for kind, family in (("submitted", self._m_admitted),
                             ("failed", self._m_failed),
                             ("cancelled", self._m_cancelled)):
            if counts.get(kind):
                family.labels(tenant=tenant).inc(counts[kind])
        if counts.get("done"):
            self._m_completed.labels(
                tenant=tenant, verdict=str(entry.get("verdict"))
            ).inc(counts["done"])

    async def shutdown(self) -> None:
        """Graceful drain: stop admissions, interrupt running jobs at
        their next level boundary (they fall back to ``queued`` with a
        checkpoint), leave queued jobs in the journal, stop the runners,
        reap every check process, compact the journal, and let go of
        the state directory."""
        self._accepting = False
        self._interrupting = True
        self._stopping = True
        for job_id, slot in self._running.items():
            self._jobs[job_id].interrupt_requested = True
            slot.sync()
        if self._wake is not None:
            self._wake.set()
        if self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)
        self._runners = []
        await asyncio.gather(*(slot.close() for slot in self._slots))
        self._slots = []
        self._set_gauges()
        try:
            self.journal.compact()
        except OSError:  # pragma: no cover - a full disk must not wedge
            pass
        if self._lock_file is not None:
            self._lock_file.close()
            self._lock_file = None

    def kill_check_processes(self) -> None:
        """SIGKILL every check process now (any thread)."""
        for slot in self._slots:
            slot.kill()

    # -- submission / querying ----------------------------------------------

    def validate_request(self, request: CheckRequest) -> None:
        """Eager validation: a module that cannot parse or a spec that
        does not exist fails now (HTTP 400), not minutes later.  Pure
        CPU on the request alone, so the HTTP layer runs it on an
        executor thread -- a pathological module must not stall the
        event loop every other connection shares."""
        from ..engine import resolve_request

        try:
            resolve_request(load_module(request.module_source), request.spec,
                            request.invariants, request.properties)
        except TypeError as exc:  # a name of the wrong kind of definition
            raise ValueError(str(exc)) from None

    def submit(self, request: CheckRequest,
               tenant: str = DEFAULT_TENANT,
               prevalidated: bool = False) -> Tuple[Job, str]:
        """Admit one request for *tenant*.  Returns ``(job, disposition)``
        where disposition is ``"created"`` (fresh job queued),
        ``"cached"`` (verdict served from the result cache; the job is
        born ``done`` with ``cache_hit=True``), or ``"coalesced"`` (an
        identical job is already queued/running; the caller shares it).
        Raises :class:`QueueFull` past the shared admission limit,
        :class:`TenantThrottled` past the tenant's own rate/bounds (cache
        hits and coalesced submissions are never charged -- they queue
        nothing), and ``ValueError`` for requests that cannot
        parse/elaborate.  *prevalidated* skips the parse/elaborate pass
        for callers that already ran :meth:`validate_request` (the HTTP
        layer does, off the event loop)."""
        if not valid_tenant(tenant):
            raise ValueError(
                "tenant must be 1-64 characters of [A-Za-z0-9._-]")
        if not self._accepting:
            self._m_rejected.labels(tenant=tenant, reason="draining").inc()
            raise QueueFull(retry_after=self._retry_after())
        if not prevalidated:
            self.validate_request(request)

        fingerprint = request.fingerprint()
        live_id = self._inflight.get(fingerprint)
        if live_id is not None:
            live = self._jobs.get(live_id)
            if live is not None and not live.terminal:
                live.coalesced += 1
                self._m_coalesced.labels(tenant=tenant).inc()
                return live, "coalesced"
        cached = self.cache.get(fingerprint)
        if cached is not None:
            job = self._new_job(request, fingerprint, tenant)
            job.cache_hit = True
            job.state = "done"
            job.finished = time.time()
            job.result = cached
            job.emit("done", verdict=cached.get("verdict"), cache_hit=True)
            self._jobs[job.id] = job
            verdict = str(cached.get("verdict"))
            self._m_admitted.labels(tenant=tenant).inc()
            self._m_completed.labels(tenant=tenant, verdict=verdict).inc()
            self._m_latency.labels(tenant=tenant).observe(
                job.finished - job.created)
            self.journal.append("submitted", job.id, tenant=tenant,
                                fingerprint=fingerprint, cached=True)
            self.journal.append("done", job.id, verdict=verdict)
            return job, "cached"
        if self._queued_count() >= self.queue_limit:
            self._m_rejected.labels(tenant=tenant,
                                    reason="queue_full").inc()
            raise QueueFull(retry_after=self._retry_after())
        try:
            self.scheduler.admit(tenant)
        except TenantThrottled as exc:
            self._m_rejected.labels(tenant=tenant, reason=exc.reason).inc()
            raise
        job = self._new_job(request, fingerprint, tenant)
        job.emit("queued", tenant=tenant)
        self._jobs[job.id] = job
        self._inflight[fingerprint] = job.id
        self._m_admitted.labels(tenant=tenant).inc()
        self.journal.append("submitted", job.id, tenant=tenant,
                            fingerprint=fingerprint,
                            request=request.to_dict())
        self.scheduler.push(tenant, job.id)
        self._set_gauges()
        if self._wake is not None:
            self._wake.set()
        return job, "created"

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return sorted(self._jobs.values(), key=lambda job: job.created)

    def cancel(self, job_id: str) -> Tuple[Optional[Job], bool]:
        """Cancel a job: immediate for ``queued``, cooperative (next BFS
        level boundary) for ``running``.  Returns (job, accepted)."""
        job = self._jobs.get(job_id)
        if job is None:
            return None, False
        if job.state == "queued":
            job.state = "cancelled"
            job.finished = time.time()
            job.emit("cancelled", while_state="queued")
            self._inflight.pop(job.fingerprint, None)
            self.scheduler.forget(job.tenant, job.id)
            self.journal.append("cancelled", job.id, tenant=job.tenant,
                                coalesced=job.coalesced)
            self._m_cancelled.labels(tenant=job.tenant).inc()
            self._set_gauges()
            return job, True
        if job.state == "running":
            job.cancel_requested = True
            job.emit("cancel_requested")
            slot = self._running.get(job.id)
            if slot is not None:
                slot.sync()
            return job, True
        return job, False

    def health(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return {
            "status": "ok" if self._accepting else "draining",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "pid": os.getpid(),
            "pool_size": self.pool_size,
            "check_processes": [slot.pid for slot in self._slots
                                if slot.pid is not None],
            "queue_limit": self.queue_limit,
            "queued": self._queued_count(),
            "jobs": counts,
            "cache": self.cache.counters(),
            "tenants": len(self.scheduler.tenants_view()),
            "journal_bytes": self.journal.log_size(),
        }

    def tenants(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant scheduler state for ``GET /tenants``."""
        return self.scheduler.tenants_view()

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``."""
        self._set_gauges()
        return self.registry.render()

    # -- internals -----------------------------------------------------------

    def _new_job(self, request: CheckRequest, fingerprint: str,
                 tenant: str = DEFAULT_TENANT) -> Job:
        return self._job(uuid.uuid4().hex[:12], request, fingerprint, tenant)

    def _job(self, job_id: str, request: Optional[CheckRequest],
             fingerprint: str, tenant: str) -> Job:
        """A job whose files live at ``jobs/<id>.ckpt`` and
        ``jobs/<id>.events.ndjson``, paths derived from its id alone."""
        job = Job(job_id, request, fingerprint,
                  checkpoint_path=os.path.join(self.jobs_dir,
                                               job_id + ".ckpt"),
                  tenant=tenant)
        job.events_path = os.path.join(self.jobs_dir,
                                       job_id + ".events.ndjson")
        return job

    def _queued_count(self) -> int:
        return sum(1 for job in self._jobs.values()
                   if job.state == "queued")

    def _running_count(self) -> int:
        return sum(1 for job in self._jobs.values()
                   if job.state == "running")

    def _retry_after(self) -> float:
        """Backpressure hint: roughly how long until a queue slot frees
        (queue depth x mean recent runtime / pool width)."""
        recent = self._recent_runtimes
        mean = (sum(recent) / len(recent)) if recent else 1.0
        estimate = self._queued_count() * mean / self.pool_size
        return round(max(1.0, estimate), 1)

    def _set_gauges(self) -> None:
        self._m_queue_depth.default.set(self._queued_count())
        self._m_running.default.set(self._running_count())

    async def _next_job(self) -> Optional[Tuple[str, str]]:
        """The next (tenant, job_id) the DRR scheduler dispatches, or
        ``None`` when the manager is stopping.  Waits when nothing is
        dispatchable (empty queues, or every queued tenant at its
        in-flight cap)."""
        assert self._wake is not None
        while True:
            if self._stopping:
                return None
            self._wake.clear()
            item = self.scheduler.pop()
            if item is not None:
                return item
            await self._wake.wait()

    async def _runner(self, slot: CheckProcess) -> None:
        """One pool slot: take scheduled jobs and execute them in the
        slot's check process, journaling every transition and mirroring
        it to metrics."""
        while True:
            item = await self._next_job()
            if item is None:
                return
            tenant, job_id = item
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued" or self._interrupting:
                # cancelled while queued, or draining (stays journaled)
                self.scheduler.release(tenant, completed=False)
                continue
            job.state = "running"
            job.started = time.time()
            job.emit("started", resume=job.resume,
                     workers=job.request.workers)
            self.journal.append("started", job.id, tenant=tenant,
                                resume=job.resume)
            self._set_gauges()
            began = time.monotonic()
            self._running[job.id] = slot
            try:
                result = await slot.run(job, job.emit)
            except JobCancelled:
                job.state = "cancelled"
                job.finished = time.time()
                job.emit("cancelled", while_state="running")
                self._inflight.pop(job.fingerprint, None)
                self._remove_checkpoint(job)
                self.journal.append("cancelled", job.id, tenant=tenant,
                                    coalesced=job.coalesced)
                self._m_cancelled.labels(tenant=tenant).inc()
                self.scheduler.release(tenant, completed=False)
            except JobInterrupted:
                # graceful shutdown: back to queued, checkpoint on disk;
                # the next manager on this state_dir resumes it
                job.state = "queued"
                job.resume = bool(job.checkpoint_path
                                  and os.path.exists(job.checkpoint_path))
                job.emit("interrupted", resume=job.resume)
                self.journal.append("requeued", job.id, tenant=tenant)
                self.scheduler.release(tenant, completed=False)
            except Exception as exc:  # a failed check is a job outcome
                job.state = "failed"
                job.finished = time.time()
                job.error = (str(exc) if isinstance(exc, CheckFailed)
                             else f"{type(exc).__name__}: {exc}")
                job.emit("failed", error=job.error)
                self._inflight.pop(job.fingerprint, None)
                self._remove_checkpoint(job)
                self.journal.append("failed", job.id, tenant=tenant,
                                    error=job.error, coalesced=job.coalesced)
                self._m_failed.labels(tenant=tenant).inc()
                self._m_latency.labels(tenant=tenant).observe(
                    job.finished - job.created)
                self.scheduler.release(tenant, completed=False)
            else:
                job.state = "done"
                job.finished = time.time()
                job.result = result
                verdict = result.get("verdict")
                if verdict in _CACHEABLE_VERDICTS:
                    self.cache.put(job.fingerprint, result)
                self._recent_runtimes.append(time.monotonic() - began)
                del self._recent_runtimes[:-16]
                job.emit("done", verdict=verdict,
                         cache_hit=False,
                         states=result.get("states"),
                         edges=result.get("edges"))
                self._inflight.pop(job.fingerprint, None)
                self._remove_checkpoint(job)
                self.journal.append("done", job.id, tenant=tenant,
                                    verdict=verdict, coalesced=job.coalesced)
                self._m_completed.labels(tenant=tenant,
                                         verdict=str(verdict)).inc()
                self._m_engine.labels(
                    engine=result.get("engine", "explicit")).inc()
                self._m_latency.labels(tenant=tenant).observe(
                    job.finished - job.created)
                self.scheduler.release(tenant, completed=True)
            finally:
                self._running.pop(job.id, None)
            self._finish()

    def _finish(self) -> None:
        """Settle the gauges after a run and wake dispatchers (a release
        may have unblocked a tenant at its in-flight cap)."""
        self._set_gauges()
        self._maybe_compact_journal()
        if self._wake is not None:
            self._wake.set()

    def _maybe_compact_journal(self) -> None:
        """Fold the journal on an executor thread once its log passes
        :data:`JOURNAL_COMPACT_BYTES`.  shutdown() compacts on graceful
        drains, but a process that dies by SIGKILL -- the very scenario
        the journal exists for -- or simply runs for weeks would
        otherwise grow the log without bound."""
        if (self._stopping or self._compacting
                or self.journal.log_size() < JOURNAL_COMPACT_BYTES):
            return
        self._compacting = True

        def work() -> None:
            try:
                self.journal.compact()
            except OSError:  # a full disk must not wedge the runner
                pass

        future = asyncio.get_running_loop().run_in_executor(None, work)
        future.add_done_callback(
            lambda _f: setattr(self, "_compacting", False))

    def _remove_checkpoint(self, job: Job) -> None:
        if not job.checkpoint_path:
            return
        try:
            os.unlink(job.checkpoint_path)
        except OSError:
            pass
