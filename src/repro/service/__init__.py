"""Checking-as-a-service: an asyncio job server over the explorer.

Every entry point before this package was a one-shot CLI process: each
``repro check`` re-explored from scratch even when the module, spec, and
flags were byte-identical, and nothing could watch a long run without
owning its terminal.  This package splits *submission* from *checking*
the way TLAPS's proof manager splits obligation generation from backend
provers (see PAPERS.md):

* :mod:`repro.service.cache` -- the content-addressed result cache
  keyed by a canonical fingerprint of (module source, spec name,
  semantic check config), so byte-identical resubmissions return in
  O(1); sharded, LRU-bounded and safe for N concurrent writer
  processes;
* :mod:`repro.service.journal` -- the append-only job journal +
  snapshot compaction, the one durable job store: queued jobs survive
  SIGKILL and are re-admitted exactly once per restart;
* :mod:`repro.service.scheduler` -- per-tenant token-bucket rate
  limits, queue/in-flight bounds, and deficit-round-robin dispatch, so
  no tenant can starve the rest;
* :mod:`repro.service.metrics` -- stdlib counters/gauges/histograms
  rendered in the Prometheus text format at ``GET /metrics``, whose
  admission counters a starting front folds from the journal;
* :mod:`repro.service.jobs` -- the job manager: admission control over a
  bounded queue (full -> rejected with a retry-after hint), a bounded
  pool of concurrent explorations, a per-job
  ``queued -> running -> done/failed/cancelled`` state machine, live
  per-level progress events, and graceful shutdown that checkpoints
  in-flight jobs so a restarted server resumes them;
* :mod:`repro.service.server` -- a stdlib-only asyncio HTTP front end
  (``POST /jobs``, ``GET /jobs/<id>``, NDJSON event streaming,
  ``DELETE /jobs/<id>``, ``/healthz``, ``/metrics``, ``/tenants``),
  one front per state directory;
* :mod:`repro.service.pool` -- the check processes: one long-lived
  child interpreter per pool slot runs the explorations off the
  front's GIL, speaking newline-delimited JSON over its stdin/stdout;
* :mod:`repro.service.client` -- the thin blocking client behind the
  ``repro serve`` / ``repro submit`` / ``repro watch`` / ``repro
  cancel`` / ``repro admin`` CLI verbs, with Retry-After-honouring
  backoff on 429.

Everything is standard library only; the exploration itself runs through
the same :func:`repro.checker.explore_parallel` / checkpoint machinery
the CLI uses, so verdicts, traces, and graphs are bit-for-bit the ones a
local run would produce.
"""

from .cache import ShardedResultCache, canonical_fingerprint
from .client import ServiceClient, ServiceError, QueueFullError
from .jobs import CheckRequest, Job, JobManager, QueueFull, TenantThrottled
from .journal import JobJournal
from .metrics import MetricsRegistry
from .scheduler import DEFAULT_TENANT, FairScheduler, TenantPolicy
from .server import BackgroundServer, CheckService, run_server

__all__ = [
    "ShardedResultCache",
    "canonical_fingerprint",
    "CheckRequest",
    "Job",
    "JobManager",
    "JobJournal",
    "MetricsRegistry",
    "QueueFull",
    "TenantThrottled",
    "TenantPolicy",
    "FairScheduler",
    "DEFAULT_TENANT",
    "CheckService",
    "BackgroundServer",
    "run_server",
    "ServiceClient",
    "ServiceError",
    "QueueFullError",
]
