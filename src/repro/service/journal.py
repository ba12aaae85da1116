"""Append-only job journal: the service's durable queue of record.

Per-job ``jobs/<id>.json`` records survive a graceful drain, but a
SIGKILL can land between a submission being admitted and its record
being written, and nothing in the records says which transitions
happened.  The journal is the service's record of every transition,
kept with the classic recipe:

* **Append-only NDJSON log** (``journal/journal.ndjson``): every job
  transition -- ``submitted`` (with the full request, so the journal is
  self-contained), ``started``, ``requeued``, ``done``/``failed``/
  ``cancelled``, and recovery ``claimed`` records -- is one JSON line
  appended under the journal lock.  A SIGKILL can at worst tear the final
  line; :meth:`JobJournal.replay` tolerates exactly that (a torn
  *middle* line would mean filesystem corruption and is skipped with a
  count).
* **Snapshot compaction** (``journal/snapshot.json``): replay folds the
  log into one record per job id; :meth:`JobJournal.compact` persists
  that fold (plus an optional extra blob -- the service embeds a
  metrics snapshot) and truncates the log, so the journal's size tracks
  the *live* job population, not service uptime.
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
from typing import Dict, Iterator, Optional

from .cache import atomic_write_json

__all__ = ["JobJournal"]

# kinds after which a job is finished
_TERMINAL_KINDS = ("done", "failed", "cancelled")


class JobJournal:
    """One state directory's journal."""

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log_path = os.path.join(self.directory, "journal.ndjson")
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self.lock = threading.Lock()
        self.torn_lines = 0

    # -- writing -------------------------------------------------------------

    def append(self, kind: str, job_id: str, **fields: object) -> None:
        """Append one transition under the lock (one line, one write)."""
        record: Dict[str, object] = {
            "kind": kind, "job": job_id, "pid": os.getpid(),
            "t": round(time.time(), 4),
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self.lock, open(self.log_path, "a") as handle:
            handle.write(line)

    # -- reading -------------------------------------------------------------

    def _iter_log(self) -> Iterator[Dict[str, object]]:
        try:
            with open(self.log_path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return
        lines = raw.split(b"\n")
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # a torn final line is the expected SIGKILL residue;
                # anything earlier is corruption we skip but count
                self.torn_lines += 1

    def replay(self) -> Dict[str, Dict[str, object]]:
        """Fold snapshot + log into one record per job id::

            {job_id: {"state", "tenant", "request", "fingerprint",
                      "verdict", "counts": {kind: n},
                      "claims": [{"pid", "t"}, ...], "first_t", "last_t"}}
        """
        jobs: Dict[str, Dict[str, object]] = {}
        try:
            with open(self.snapshot_path) as handle:
                snapshot = json.load(handle)
            jobs = {job_id: dict(record) for job_id, record
                    in snapshot.get("jobs", {}).items()}
        except (OSError, ValueError):
            pass
        for entry in self._iter_log():
            job_id = entry.get("job")
            kind = entry.get("kind")
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
                if entry.get("request") is not None:
                    record["request"] = entry["request"]
            elif kind == "started":
                record["state"] = "running"
            elif kind == "requeued":
                record["state"] = "queued"
            elif kind == "claimed":
                record["state"] = "queued"
                record.setdefault("claims", []).append(
                    {"pid": entry.get("pid"), "t": entry.get("t")})
            elif kind in _TERMINAL_KINDS:
                record["state"] = kind
                if entry.get("verdict") is not None:
                    record["verdict"] = entry["verdict"]
        return jobs

    # -- compaction ----------------------------------------------------------

    def compact(self, extra: Optional[Dict[str, object]] = None,
                drop_terminal_older_than: Optional[float] = None) -> int:
        """Fold the log into ``snapshot.json`` and truncate it.  Returns
        the number of job records retained.  *extra* is persisted
        verbatim in the snapshot (the service stores a metrics snapshot
        there, its run-manifest twin).  Terminal records older than
        *drop_terminal_older_than* seconds are aged out."""
        with self.lock:
            jobs = self.replay()
            if drop_terminal_older_than is not None:
                horizon = time.time() - drop_terminal_older_than
                jobs = {job_id: record for job_id, record in jobs.items()
                        if record.get("state") not in _TERMINAL_KINDS
                        or (record.get("last_t") or 0) >= horizon}
            snapshot: Dict[str, object] = {
                "version": 1, "t": round(time.time(), 4), "jobs": jobs,
            }
            if extra:
                snapshot["extra"] = extra
            atomic_write_json(self.snapshot_path, snapshot)
            with open(self.log_path, "w"):
                pass  # truncate: its contents are folded into the snapshot
            return len(jobs)

    def log_size(self) -> int:
        try:
            return os.path.getsize(self.log_path)
        except OSError:
            return 0
