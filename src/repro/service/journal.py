"""Append-only job journal: the service's one durable job store.

Every job transition is one line here and nowhere else: a front that
restarts (after a drain or a SIGKILL) rebuilds its jobs, their
``GET /jobs/<id>`` view and its admission counters by folding this
journal.  It is kept with the classic recipe:

* **Append-only record log** (``journal/journal.ndjson``, a
  :mod:`repro.records` log): every job transition -- ``submitted``
  (with the full request, so the journal is self-contained),
  ``started``, ``requeued``, ``done``/``failed``/``cancelled``, and
  recovery ``claimed`` records -- is one frame appended under the
  journal lock, timestamped with its transition.  Replay drops a torn
  final frame (the SIGKILL residue) and raises on any other damage;
  the front compacts when it starts, so it never appends behind a torn
  frame or to an older front's NDJSON log.
* **Snapshot compaction** (``journal/snapshot.json``): replay folds the
  log into one record per job id; :meth:`JobJournal.compact` persists
  that fold, ``fsync``'d, then truncates the log, so the log's size
  tracks the work since the last fold.  Records are never aged out:
  the admission counters are a fold of them.  A finished job's request
  is dropped from its record once the record carries the fingerprint
  that recovery looks its result up by.
* **Idempotent replay, exactly-once re-admission**: replay is keyed by
  job id -- re-applying any suffix of the log is a no-op on the folded
  state.  One front holds a state directory at a time (its
  ``front.lock``), so a starting front re-admits every job the fold
  shows queued or running, appending ``claimed`` for each: every
  unfinished job is run again exactly once per restart.

Lock discipline: the journal's one writer is the front holding the
state directory, so a thread lock suffices: it keeps appends out of a
compaction (which runs on a thread of its own) between its replay and
its truncation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict

from .. import records

__all__ = ["JobJournal"]

# kinds after which a job is finished
_TERMINAL_KINDS = ("done", "failed", "cancelled")

# the first bytes of a framed journal log
_MAGIC = b"repro job journal\n"


class JobJournal:
    """One state directory's journal."""

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log_path = os.path.join(self.directory, "journal.ndjson")
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self.lock = threading.Lock()
        self.torn_lines = 0  # torn final frames the last replay dropped

    # -- writing -------------------------------------------------------------

    def append(self, kind: str, job_id: str, **fields: object) -> None:
        """Append one transition under the lock (one frame, one write)."""
        record: Dict[str, object] = {
            "kind": kind, "job": job_id, "pid": os.getpid(),
            "t": round(time.time(), 4),
        }
        record.update(fields)
        with self.lock:
            records.append(self.log_path, _MAGIC, record, fsync=False)

    # -- reading -------------------------------------------------------------

    def replay(self) -> Dict[str, Dict[str, object]]:
        """Fold snapshot + log into one record per job id::

            {job_id: {"state", "tenant", "request", "fingerprint",
                      "verdict", "error", "cache_hit", "resume",
                      "coalesced", "counts": {kind: n},
                      "claims": [{"pid", "t"}, ...],
                      "first_t", "started_t", "last_t"}}

        ``first_t`` is the ``submitted`` time, ``started_t`` that of the
        last ``started``, and ``last_t`` that of the latest record --
        for a finished job, its terminal one.  A record folded by an
        older front may lack the keys it did not write; read them with
        ``get``.  A snapshot that does not parse, or damage in the log
        other than a torn final frame, is a
        :class:`~repro.records.RecordError`.
        """
        try:
            with open(self.snapshot_path, "rb") as handle:
                folded = json.loads(handle.read())["jobs"]
            jobs = {job_id: dict(record) for job_id, record in folded.items()}
        except FileNotFoundError:  # only an absent snapshot holds no jobs
            jobs = {}
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise records.RecordError(self.snapshot_path, None,
                                      f"unreadable snapshot ({exc})") from None
        try:
            log = records.read(self.log_path, _MAGIC)
        except FileNotFoundError:
            log = records.Log([], False, False)
        self.torn_lines = int(log.torn)
        for entry in log.records:
            job_id, kind = entry.get("job"), entry.get("kind")
            if not isinstance(job_id, str) or not isinstance(kind, str):
                continue
            record = jobs.setdefault(job_id, {
                "state": None, "tenant": None, "request": None,
                "fingerprint": None, "verdict": None, "counts": {},
                "claims": [], "first_t": entry.get("t"),
            })
            counts = record.setdefault("counts", {})
            counts[kind] = counts.get(kind, 0) + 1
            record["last_t"] = entry.get("t")
            if kind == "submitted":
                record["state"] = "queued"
                record["tenant"] = entry.get("tenant", record["tenant"])
                record["fingerprint"] = entry.get(
                    "fingerprint", record["fingerprint"])
                record["cache_hit"] = bool(entry.get("cached"))
                if entry.get("request") is not None:
                    record["request"] = entry["request"]
            elif kind == "started":
                record["state"] = "running"
                record["started_t"] = entry.get("t")
                record["resume"] = bool(entry.get("resume"))
            elif kind == "requeued":
                record["state"] = "queued"
            elif kind == "claimed":
                record["state"] = "queued"
                record.setdefault("claims", []).append(
                    {"pid": entry.get("pid"), "t": entry.get("t")})
            elif kind in _TERMINAL_KINDS:
                record["state"] = kind
                for key in ("verdict", "error", "coalesced"):
                    if entry.get(key) is not None:
                        record[key] = entry[key]
        return jobs

    # -- compaction ----------------------------------------------------------

    def compact(self) -> int:
        """Fold the log into ``snapshot.json`` and truncate it.  Returns
        the number of job records retained (all of them).  A finished
        job with a fingerprint keeps no request: nothing reads it again,
        and it is most of the record (the module source)."""
        with self.lock:
            jobs = self.replay()
            for record in jobs.values():
                if record.get("state") in _TERMINAL_KINDS \
                        and record.get("fingerprint"):
                    record.pop("request", None)
            # durable before the truncation drops the log it folds
            records.atomic_replace(self.snapshot_path, records.encode({
                "version": 1, "t": round(time.time(), 4), "jobs": jobs,
            }), fsync=True)
            with open(self.log_path, "wb"):
                pass  # truncate: its contents are folded into the snapshot
            return len(jobs)

    def log_size(self) -> int:
        try:
            return os.path.getsize(self.log_path)
        except OSError:
            return 0
