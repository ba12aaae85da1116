"""JobManager state machine: the queued -> running -> terminal
lifecycle, streaming level events, caching/coalescing dispositions,
admission control, cooperative cancellation, and the acceptance
scenario -- graceful shutdown mid-job checkpoints, and a fresh manager
on the same state directory resumes to the identical graph digest."""

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import records
from repro.parser import ParseError
import repro.service.cache as cache_module
from repro.service.cache import ShardedResultCache
from repro.service.jobs import (
    EVENTS_MAGIC,
    MAX_MODULE_SOURCE,
    CheckRequest,
    Job,
    JobManager,
    QueueFull,
    run_check,
    valid_job_id,
)
from repro.service.journal import _MAGIC as JOURNAL_MAGIC
from repro.service.journal import JobJournal
from repro.service.pool import CheckProcess

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
TooSmall == x < 2
Progress == (x = 0) ~> (x = 2)
"""

# a 41-level chain: slow enough (with level_delay) to watch, cancel,
# and interrupt mid-flight, fast enough to finish within a test
CHAIN_TLA = """
MODULE Chain
CONSTANT N = 40
VARIABLE x \\in 0..40
Init == x = 0
Next == x' = IF x < N THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Bound == x <= 40
"""


def counter_request(**overrides):
    overrides.setdefault("module_source", COUNTER_TLA)
    overrides.setdefault("invariants", ("Small",))
    return CheckRequest(**overrides)


def chain_request(**overrides):
    overrides.setdefault("invariants", ("Bound",))
    return CheckRequest(module_source=CHAIN_TLA, **overrides)


async def wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.02)


def restart(state_dir, probe=lambda manager: None):
    """Start a fresh manager on *state_dir*, hand it to *probe* before
    any runner has run, let every job finish and shut down.  Returns
    ``(probe's answer, manager)``."""
    async def scenario():
        manager = JobManager(str(state_dir), pool_size=1)
        await manager.start()
        seen = probe(manager)
        for job in manager.jobs():
            await wait_terminal(job)
        await manager.shutdown()
        return seen, manager

    return asyncio.run(scenario())


def states(manager):
    return {job.id: job.state for job in manager.jobs()}


def metric_totals(text):
    """{family: sum over its samples} of a Prometheus exposition."""
    totals = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            family = name.split("{", 1)[0]
            totals[family] = totals.get(family, 0.0) + float(value)
    return totals


async def wait_terminal(job, timeout=30.0):
    await wait_for(lambda: job.terminal, timeout,
                   f"job {job.id} to finish (state={job.state})")
    return job


class TestLifecycle:
    def test_emit_wakes_every_waiting_watcher(self):
        async def scenario():
            job = Job("a00000000001", counter_request(), "f" * 64)
            appended = job.appended()
            assert job.appended() is appended  # one per emit, shared
            watchers = [asyncio.ensure_future(appended.wait())
                        for _ in range(2)]
            await asyncio.sleep(0)
            assert not any(watcher.done() for watcher in watchers)
            job.emit("queued")
            await asyncio.wait_for(asyncio.gather(*watchers), 1.0)
            assert job.appended() is not appended  # the next emit's

        asyncio.run(scenario())

    def test_submit_runs_to_done_with_events(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, disposition = manager.submit(counter_request())
            assert disposition == "created"
            assert job.state == "queued"
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result["verdict"] == "ok"
        assert job.result["states"] == 3
        assert job.result["graph_digest"]
        kinds = [event["event"] for event in job.events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "done"
        assert kinds.count("level") == job.result["stats"]["levels_seen"]
        # seq is a gap-free stream index (what the NDJSON watcher relies on)
        assert [event["seq"] for event in job.events] \
            == list(range(len(job.events)))
        # done jobs leave no checkpoint behind
        assert not os.path.exists(job.checkpoint_path)

    def test_violation_carries_portable_trace(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request(invariants=("TooSmall",)))
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result["verdict"] == "violation"
        (check,) = job.result["checks"]
        assert check["ok"] is False
        assert check["counterexample"] is not None

    def test_explosion_is_a_verdict_not_a_failure(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request(max_states=2))
            await wait_terminal(job)
            # explosions are pure functions of the request too: cached
            rerun, disposition = manager.submit(counter_request(max_states=2))
            await manager.shutdown()
            return job, rerun, disposition

        job, rerun, disposition = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result["verdict"] == "explosion"
        assert "state budget" in job.result["error"]
        assert disposition == "cached"
        assert rerun.result["verdict"] == "explosion"

    def test_record_and_event_log_persisted(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(scenario())
        record = JobJournal(str(tmp_path / "journal")).replay()[job.id]
        assert record["state"] == "done"
        assert record["verdict"] == "ok"
        events_path = tmp_path / "jobs" / (job.id + ".events.ndjson")
        assert records.read(str(events_path), EVENTS_MAGIC).records \
            == job.events
        # a restarted front shows the job as it was, result included
        _, manager = restart(tmp_path)
        recovered = manager.get(job.id)
        before, after = job.to_dict(), recovered.to_dict()
        for key in ("created", "started", "finished"):
            assert after.pop(key) == pytest.approx(before.pop(key), abs=0.5)
        assert after == before
        assert recovered.events == job.events

    def test_bad_submissions_rejected_eagerly(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            outcomes = {}
            for key, request in {
                "parse": CheckRequest(module_source="MODULE Bad\nInit == x ="),
                "spec": counter_request(spec="NoSuchSpec"),
                "name": counter_request(invariants=("NoSuchInv",)),
            }.items():
                try:
                    manager.submit(request)
                except (ParseError, ValueError, KeyError) as exc:
                    outcomes[key] = exc
            await manager.shutdown()
            return outcomes

        outcomes = asyncio.run(scenario())
        assert set(outcomes) == {"parse", "spec", "name"}

    def test_validate_request_is_submit_precheck(self, tmp_path):
        # the HTTP layer runs this on an executor thread, then submits
        # with prevalidated=True -- both paths must agree
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            with pytest.raises(KeyError):
                manager.validate_request(
                    counter_request(invariants=("NoSuchInv",)))
            manager.validate_request(counter_request())
            job, disposition = manager.submit(counter_request(),
                                              prevalidated=True)
            assert disposition == "created"
            await wait_terminal(job)
            await manager.shutdown()
            return job

        assert asyncio.run(scenario()).state == "done"


class TestJobIdValidation:
    """Wire-supplied job ids are joined into jobs/<id>.* paths; anything
    that is not literally a generated id must be refused before any
    disk path is derived from it (the path-traversal regression)."""

    def test_valid_job_id_shape(self):
        assert valid_job_id("0123456789ab")
        for bad in ("", "0123456789AB", "0123456789abc", "0123456789a",
                    "../abcdef0123", "abcdef012345/../x", "0123456789a\n",
                    None, 123456789012):
            assert not valid_job_id(bad)

    def test_traversal_ids_cannot_reach_outside_jobs_dir(self, tmp_path):
        # a readable JSON file one level above jobs/ -- reachable via
        # "../<name>" before ids were validated
        outside = tmp_path / "outside.json"
        outside.write_text(json.dumps({"id": "x", "state": "queued"}))

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            before = sorted(p.name for p in tmp_path.iterdir())
            for evil in ("../outside", "../../../../etc/passwd",
                         "..%2foutside"):
                assert manager.get(evil) is None
                assert manager.cancel(evil) == (None, False)
            assert sorted(p.name for p in tmp_path.iterdir()) == before
            await manager.shutdown()

        asyncio.run(scenario())
        # in particular nothing was written next to the targeted file
        assert json.loads(outside.read_text()) == {"id": "x",
                                                   "state": "queued"}
        assert sorted(p.name for p in tmp_path.glob("outside*")) \
            == ["outside.json"]


class TestCacheAndCoalescing:
    def test_identical_resubmission_is_cached_with_zero_exploration(
            self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            first, first_disposition = manager.submit(counter_request())
            await wait_terminal(first)
            # execution-only knobs differ; the fingerprint must not
            second, second_disposition = manager.submit(
                counter_request(workers=2, checkpoint_every=5))
            await manager.shutdown()
            return first, first_disposition, second, second_disposition

        first, d1, second, d2 = asyncio.run(scenario())
        assert (d1, d2) == ("created", "cached")
        assert second.state == "done" and second.cache_hit is True
        assert first.cache_hit is False
        # byte-identical verdict, trace, and graph -- served from cache
        assert second.result == first.result
        # zero new exploration: the cached job never started or levelled
        kinds = [event["event"] for event in second.events]
        assert kinds == ["done"]
        assert second.events[0]["cache_hit"] is True

    def test_any_semantic_change_misses_the_cache(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            first, _ = manager.submit(counter_request())
            await wait_terminal(first)
            changed, disposition = manager.submit(
                counter_request(module_source=COUNTER_TLA + "\n"))
            await wait_terminal(changed)
            await manager.shutdown()
            return disposition

        assert asyncio.run(scenario()) == "created"

    def test_cache_survives_a_manager_restart(self, tmp_path):
        async def first_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            await manager.shutdown()
            return job.result

        async def second_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, disposition = manager.submit(counter_request())
            await manager.shutdown()
            return job, disposition

        fresh_result = asyncio.run(first_life())
        job, disposition = asyncio.run(second_life())
        assert disposition == "cached"
        assert job.result == fresh_result

    def test_an_entry_from_other_checker_sources_misses(self, tmp_path,
                                                         monkeypatch):
        # the cache was filled by another version of the checker (an
        # upgrade kept the state directory): its verdicts are not served
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "source_digest", lambda: "0" * 64)
            stale = counter_request().fingerprint()
        ShardedResultCache(str(tmp_path / "cache")).put(
            stale, {"verdict": "violation"})

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, disposition = manager.submit(counter_request())
            await wait_terminal(job)
            await manager.shutdown()
            return job, disposition

        job, disposition = asyncio.run(scenario())
        assert disposition == "created" and job.cache_hit is False
        assert job.result["verdict"] == "ok"

    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            slow = chain_request(level_delay=0.05)
            first, _ = manager.submit(slow)
            await wait_for(lambda: first.state == "running",
                           message="job to start")
            attached = [manager.submit(slow) for _ in range(4)]
            await wait_terminal(first)
            await manager.shutdown()
            return first, attached

        first, attached = asyncio.run(scenario())
        assert all(job is first for job, _ in attached)
        assert all(d == "coalesced" for _, d in attached)
        assert first.coalesced == 4
        assert first.state == "done" and first.result["verdict"] == "ok"


class TestAdmissionControl:
    def test_queue_limit_rejects_with_retry_after(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1, queue_limit=1)
            await manager.start()
            running, _ = manager.submit(chain_request(level_delay=0.05))
            await wait_for(lambda: running.state == "running",
                           message="job to start")
            # distinct max_states => distinct fingerprints, no coalescing
            queued, disposition = manager.submit(
                chain_request(max_states=1000))
            assert disposition == "created"
            try:
                manager.submit(chain_request(max_states=1001))
            except QueueFull as exc:
                rejection = exc
            else:
                rejection = None
            manager.cancel(running.id)
            await wait_terminal(running)
            await wait_terminal(queued)
            await manager.shutdown()
            return rejection

        rejection = asyncio.run(scenario())
        assert rejection is not None
        assert rejection.retry_after >= 1.0


class TestCancellation:
    def test_cancel_queued_is_immediate(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            running, _ = manager.submit(chain_request(level_delay=0.05))
            await wait_for(lambda: running.state == "running",
                           message="job to start")
            waiting, _ = manager.submit(chain_request(max_states=1000))
            job, accepted = manager.cancel(waiting.id)
            assert accepted and job.state == "cancelled"
            manager.cancel(running.id)
            await wait_terminal(running)
            await manager.shutdown()
            return waiting

        waiting = asyncio.run(scenario())
        assert waiting.state == "cancelled"
        assert waiting.events[-1]["while_state"] == "queued"

    def test_cancel_running_lands_at_next_level_boundary(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(chain_request(level_delay=0.05))
            await wait_for(
                lambda: any(e["event"] == "level" for e in job.events),
                message="first level event")
            _, accepted = manager.cancel(job.id)
            assert accepted
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.state == "cancelled"
        kinds = [event["event"] for event in job.events]
        assert "cancel_requested" in kinds
        assert job.events[-1]["while_state"] == "running"
        # it stopped early: nowhere near the chain's 41 levels
        assert kinds.count("level") < 41
        assert not os.path.exists(job.checkpoint_path)

    def test_cancel_terminal_job_is_rejected(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            _, accepted = manager.cancel(job.id)
            await manager.shutdown()
            return accepted

        assert asyncio.run(scenario()) is False

    def test_cancel_unknown_job(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, accepted = manager.cancel("nope")
            await manager.shutdown()
            return job, accepted

        assert asyncio.run(scenario()) == (None, False)


class TestShutdownAndResume:
    """The acceptance scenario: interrupt mid-job, restart, resume to
    the bit-for-bit identical graph."""

    def test_interrupted_job_resumes_to_identical_digest(self, tmp_path):
        request = chain_request(level_delay=0.05)
        fresh = run_check(chain_request())  # no pacing: the reference run

        async def first_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(request)
            await wait_for(
                lambda: sum(1 for e in job.events
                            if e["event"] == "level") >= 3,
                message="a few levels of progress")
            await manager.shutdown()  # SIGTERM equivalent
            return job

        job = asyncio.run(first_life())
        assert job.state == "queued"  # interrupted, not lost
        assert job.resume is True
        assert os.path.exists(job.checkpoint_path)
        kinds = [event["event"] for event in job.events]
        assert kinds[-1] == "interrupted"
        assert 3 <= kinds.count("level") < 41  # genuinely mid-flight
        record = JobJournal(str(tmp_path / "journal")).replay()[job.id]
        assert record["state"] == "queued"
        assert record["counts"]["requeued"] == 1

        async def second_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()  # recovery requeues the interrupted job
            resumed = manager.get(job.id)
            assert resumed is not None
            assert resumed.state == "queued" and resumed.resume is True
            await wait_terminal(resumed)
            await manager.shutdown()
            return resumed

        resumed = asyncio.run(second_life())
        assert resumed.state == "done"
        assert resumed.result["verdict"] == "ok"
        # the resumed exploration produced the same graph, bit for bit
        assert resumed.result["graph_digest"] == fresh["graph_digest"]
        assert resumed.result["states"] == fresh["states"]
        assert resumed.result["edges"] == fresh["edges"]
        kinds = [event["event"] for event in resumed.events]
        assert "requeued" in kinds
        started = [e for e in resumed.events if e["event"] == "started"]
        assert started[-1]["resume"] is True
        assert not os.path.exists(resumed.checkpoint_path)

    def test_crashed_running_job_is_requeued_on_recovery(self, tmp_path):
        # simulate a front crash (no graceful drain): a journaled job
        # stuck in "running" with no checkpoint must restart from scratch
        request = counter_request()
        journal = JobJournal(str(tmp_path / "journal"))
        job_id = "0123456789ab"
        journal.append("submitted", job_id, tenant="default",
                       fingerprint=request.fingerprint(),
                       request=request.to_dict())
        journal.append("started", job_id, tenant="default", resume=False)

        async def next_life():
            recovered = JobManager(str(tmp_path), pool_size=1)
            await recovered.start()
            revived = recovered.get(job_id)
            assert revived is not None
            await wait_terminal(revived)
            await recovered.shutdown()
            return revived

        revived = asyncio.run(next_life())
        assert revived.state == "done"
        assert revived.resume is False  # no checkpoint survived the crash
        assert revived.result["verdict"] == "ok"

    def test_health_counters(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=2, queue_limit=5)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            manager.submit(counter_request())  # cache hit
            health = manager.health()
            await manager.shutdown()
            return health

        health = asyncio.run(scenario())
        assert health["status"] == "ok"
        assert health["pool_size"] == 2 and health["queue_limit"] == 5
        assert health["jobs"]["done"] == 2
        assert health["cache"]["hits"] == 1
        assert health["cache"]["entries"] == 1

    def test_journal_compacts_when_log_outgrows_threshold(
            self, tmp_path, monkeypatch):
        # shutdown() compacts on graceful drains, but a long-lived (or
        # later SIGKILLed) process must fold the log in flight too
        monkeypatch.setattr("repro.service.jobs.JOURNAL_COMPACT_BYTES", 1)

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            # the fold runs on an executor thread after the job finishes
            await wait_for(
                lambda: not manager._compacting
                and manager.journal.log_size() == 0,
                message="in-flight journal compaction")
            folded = manager.journal.replay()
            await manager.shutdown()
            return job, folded

        job, folded = asyncio.run(scenario())
        assert folded[job.id]["state"] == "done"
        assert folded[job.id]["verdict"] == "ok"


def write_stale_record(state_dir, job_id, request, state):
    """A ``jobs/<id>.json`` record as an older front wrote it -- a store
    of its own it trusted over the journal -- left behind at *state*."""
    record = {
        "id": job_id, "state": state, "tenant": "default",
        "fingerprint": request.fingerprint(), "cache_hit": False,
        "resume": False, "coalesced": 0, "created": time.time(),
        "started": None, "finished": None, "result": None, "error": None,
        "events": 0, "request": request.to_dict(),
        "checkpoint": str(state_dir / "jobs" / (job_id + ".ckpt")),
    }
    (state_dir / "jobs").mkdir(exist_ok=True)
    (state_dir / "jobs" / (job_id + ".json")).write_text(json.dumps(record))


def reconciles(manager):
    totals = metric_totals(manager.metrics_text())
    return (totals.get("repro_jobs_admitted_total", 0.0),
            sum(totals.get(f"repro_jobs_{kind}_total", 0.0)
                for kind in ("completed", "failed", "cancelled")))


class TestJournalIsTheStore:
    """The journal is the one durable job store: a restart trusts it over
    anything else in the state directory, and the admission counters are
    its fold.  The stale records below are what a SIGKILL between a
    journal line and a record write left on an older front's disk."""

    def test_done_job_with_a_stale_running_record_is_not_rerun(
            self, tmp_path):
        request = counter_request()

        async def first_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(request)
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(first_life())
        write_stale_record(tmp_path, job.id, request, "running")
        seen, manager = restart(tmp_path, states)
        assert seen == {job.id: "done"}
        assert manager.get(job.id).result == job.result
        assert reconciles(manager) == (1.0, 1.0)
        counts = JobJournal(str(tmp_path / "journal")).replay()[job.id][
            "counts"]
        assert counts == {"submitted": 1, "started": 1, "done": 1}

    def test_journal_only_submission_reconciles_metrics(self, tmp_path):
        request = counter_request()
        JobJournal(str(tmp_path / "journal")).append(
            "submitted", "0123456789ab", tenant="default",
            fingerprint=request.fingerprint(), request=request.to_dict())
        seen, manager = restart(tmp_path, states)
        assert seen == {"0123456789ab": "queued"}
        assert manager.get("0123456789ab").state == "done"
        admitted, finished = reconciles(manager)
        assert admitted == finished == 1.0

    def test_cancelled_job_with_a_stale_queued_record_is_not_rerun(
            self, tmp_path):
        request = counter_request()

        async def first_life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(request)
            manager.cancel(job.id)   # before any runner saw it
            await manager.shutdown()
            return job

        job = asyncio.run(first_life())
        assert job.state == "cancelled"
        write_stale_record(tmp_path, job.id, request, "queued")
        seen, manager = restart(tmp_path, states)
        assert seen == {job.id: "cancelled"}
        assert reconciles(manager) == (1.0, 1.0)
        counts = JobJournal(str(tmp_path / "journal")).replay()[job.id][
            "counts"]
        assert counts == {"submitted": 1, "cancelled": 1}

    def test_parent_era_state_dir_starts_from_the_journal(self, tmp_path):
        # every shape an older front left: a compacted snapshot in the
        # older fold's form, log lines after it, stale records lagging
        # the journal, and a metrics snapshot nobody reads any more
        journal = JobJournal(str(tmp_path / "journal"))
        done_request = counter_request()
        fp = done_request.fingerprint()
        ShardedResultCache(str(tmp_path / "cache")).put(
            fp, run_check(done_request))
        submitted = ("submitted", {"request": done_request.to_dict()})
        lines = {
            "a00000000001": [submitted, ("started", {}),
                             ("done", {"verdict": "ok"})],
            "a00000000002": [("submitted", {"cached": True}),
                             ("done", {"verdict": "ok"})],
            "a00000000004": [submitted, ("cancelled", {})],
            # journaled after the compaction: its error is in its line
            "a00000000003": [submitted, ("started", {}),
                             ("failed", {"error": "boom"})],
        }

        def append(job_id):
            for kind, fields in lines[job_id]:
                journal.append(kind, job_id, tenant="default",
                               fingerprint=fp, **fields)

        for job_id in ("a00000000001", "a00000000002", "a00000000004"):
            append(job_id)
        journal.compact()
        older_fold = ("state", "tenant", "request", "fingerprint",
                      "verdict", "counts", "claims", "first_t", "last_t")
        snapshot = json.loads(open(journal.snapshot_path).read())
        snapshot["jobs"] = {
            job_id: {key: record.get(key) for key in older_fold}
            for job_id, record in snapshot["jobs"].items()}
        open(journal.snapshot_path, "w").write(json.dumps(snapshot))
        append("a00000000003")
        for n, state in ((5, None), (6, "started")):
            request = counter_request(max_states=1000 + n)
            job_id = f"a0000000000{n}"
            journal.append("submitted", job_id, tenant="default",
                           fingerprint=request.fingerprint(),
                           request=request.to_dict())
            if state:
                journal.append(state, job_id, tenant="default")
            write_stale_record(tmp_path, job_id, request, "queued")
        for job_id, state in (("a00000000001", "running"),
                              ("a00000000003", "running"),
                              ("a00000000004", "queued")):
            write_stale_record(tmp_path, job_id, done_request, state)
        (tmp_path / "metrics").mkdir()
        (tmp_path / "metrics" / "snapshot.json").write_text(json.dumps({
            "pid": 1, "t": 0.0, "families": {"repro_jobs_admitted_total": {
                "kind": "counter", "help": "", "labelnames": ["tenant"],
                "samples": [[["default"], 99]]}}}))
        folded = journal.replay()

        seen, manager = restart(tmp_path, lambda manager: {
            job.id: (job.state, job.result, job.error)
            for job in manager.jobs()})
        assert {job_id: state for job_id, (state, _, _) in seen.items()} \
            == {job_id: ("queued" if record["state"] == "running"
                         else record["state"])
                for job_id, record in folded.items()}
        cached = ShardedResultCache(str(tmp_path / "cache")).peek(fp)
        assert seen["a00000000001"][1] == seen["a00000000002"][1] == cached
        assert seen["a00000000003"][2] == "boom"
        assert all(job.state in ("done", "failed", "cancelled")
                   for job in manager.jobs())
        assert reconciles(manager) == (6.0, 6.0)
        after = journal.replay()
        for job_id in lines:   # finished jobs are never claimed again
            assert after[job_id]["counts"] == folded[job_id]["counts"]

    def test_ndjson_era_state_dir_restarts_unchanged(self, tmp_path):
        """A state directory whose journal log and event logs an older
        front wrote as NDJSON, one JSON line per record (a snapshot
        beside them, a torn final line in each), restarts with the jobs,
        events and counters of the same directory written framed.  The
        front rewrites framed each log it appends to, so no file mixes
        the two formats."""
        framed = tmp_path / "framed"

        async def first_life():
            manager = JobManager(str(framed), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            manager.submit(counter_request())             # cache hit
            queued, _ = manager.submit(chain_request())
            manager.cancel(queued.id)
            await manager.shutdown()                      # compacts

        asyncio.run(first_life())
        request = counter_request(max_states=1000)
        journal = JobJournal(str(framed / "journal"))
        events = str(framed / "jobs" / "a00000000001.events.ndjson")
        for seq, kind in enumerate(("submitted", "started")):  # died running
            journal.append(kind, "a00000000001", tenant="default",
                           fingerprint=request.fingerprint(),
                           request=request.to_dict())
            records.append(events, EVENTS_MAGIC,
                           {"event": kind, "job": "a00000000001",
                            "seq": seq, "t": 0.0}, fsync=False)
        old = tmp_path / "ndjson"
        shutil.copytree(framed, old)
        logs = [old / "journal" / "journal.ndjson",
                *(old / "jobs").glob("*.events.ndjson")]

        def read(path):
            return records.read(str(path), JOURNAL_MAGIC
                                if path.name == "journal.ndjson"
                                else EVENTS_MAGIC)

        for path in logs:
            lines = [json.dumps(record, separators=(",", ":")) + "\n"
                     for record in read(path).records]
            path.write_text("".join(lines) + '{"kind":"done","job":"a0')
        assert len(logs) == 5

        def view(manager):
            events = {job.id: [dict(event, t=None) for event in job.events]
                      for job in manager.jobs()}
            return (states(manager), events,
                    metric_totals(manager.metrics_text()))

        framed_view, _ = restart(framed, view)
        old_view, manager = restart(old, view)
        assert old_view == framed_view
        assert old_view[0]["a00000000001"] == "queued"
        assert reconciles(manager) == (4.0, 4.0)
        # the re-admitted job's journal and event log were appended to,
        # so converted whole, torn line dropped; the finished jobs' event
        # logs were left alone.  Every file reads whole.
        converted = ("journal.ndjson", "a00000000001.events.ndjson")
        assert {path.name: read(path)[1:] for path in logs} \
            == {path.name: (False, False) if path.name in converted
                else (True, True) for path in logs}

    def test_reduction_era_job_runs_unreduced(self, tmp_path):
        """A job an older front journaled with ``"por": true,
        "compact": false`` replays from the journal and finishes with
        the verdict, trace and digest of the same request unreduced."""
        plain = counter_request(invariants=("TooSmall",))
        JobJournal(str(tmp_path / "journal")).append(
            "submitted", "a00000000001", tenant="default",
            fingerprint="0" * 64,
            request=dict(plain.to_dict(), por=True, compact=False))
        seen, manager = restart(tmp_path, states)
        assert seen == {"a00000000001": "queued"}
        job, = manager.jobs()
        assert job.state == "done" and job.request == plain
        reference = run_check(plain)
        assert job.result["verdict"] == reference["verdict"] == "violation"
        assert job.result["checks"] == reference["checks"]
        assert job.result["graph_digest"] == reference["graph_digest"]
        assert reconciles(manager) == (1.0, 1.0)

    def test_state_dir_holds_no_record_files_or_metrics(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            manager.submit(counter_request())             # cache hit
            queued, _ = manager.submit(chain_request())
            manager.cancel(queued.id)
            await manager.shutdown()

        asyncio.run(scenario())
        assert sorted(os.listdir(tmp_path)) \
            == ["cache", "front.lock", "jobs", "journal"]
        assert list((tmp_path / "jobs").glob("*.json")) == []


class TestCheckProcesses:
    """Each pool slot checks in a child process of its own; a child
    that dies or speaks garbage fails its job closed, exactly once, and
    the slot's next job gets a fresh child."""

    @staticmethod
    def _journal_counts(tmp_path, job_id):
        return JobJournal(str(tmp_path / "journal")).replay()[job_id]["counts"]

    def test_sigkilled_check_process_fails_job_and_slot_recovers(
            self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            assert manager.health()["check_processes"] == []  # lazy
            job, _ = manager.submit(chain_request(level_delay=0.05))
            await wait_for(
                lambda: any(e["event"] == "level" for e in job.events),
                message="first level event")
            (pid,) = manager.health()["check_processes"]
            assert pid != os.getpid()
            os.kill(pid, signal.SIGKILL)
            await wait_terminal(job)
            after, _ = manager.submit(counter_request())
            await wait_terminal(after)
            pids = manager.health()["check_processes"]
            await manager.shutdown()
            return job, after, pid, pids

        job, after, pid, pids = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.error == "check process died (signal 9)"
        assert [e["event"] for e in job.events].count("failed") == 1
        counts = self._journal_counts(tmp_path, job.id)
        assert counts["failed"] == 1 and "done" not in counts
        # the slot spawned a fresh child and the next job completed
        assert after.state == "done" and after.result["verdict"] == "ok"
        assert len(pids) == 1 and pids[0] != pid

    @pytest.mark.parametrize("reply, frame", [
        # unparsable, not an object, cut short, an unknown outcome
        ('sys.stdout.write("not json\\n"); sys.stdout.flush(); '
         'sys.stdin.read()', "not json"),
        ('sys.stdout.write("[1, 2]\\n"); sys.stdout.flush(); '
         'sys.stdin.read()', "[1, 2]"),
        ('sys.stdout.write(\'{"outcome": "do\'); sys.stdout.flush()',
         '{"outcome": "do'),
        ('sys.stdout.write(\'{"outcome": "bogus"}\\n\'); '
         'sys.stdout.flush(); sys.stdin.read()', '{"outcome":"bogus"}'),
    ])
    def test_malformed_frame_fails_job_and_slot_recovers(
            self, tmp_path, monkeypatch, reply, frame):
        liar = [sys.executable, "-c",
                f"import sys; sys.stdin.readline(); {reply}"]

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            monkeypatch.setattr(CheckProcess, "command", liar)
            job, _ = manager.submit(counter_request())
            await wait_terminal(job)
            monkeypatch.undo()
            after, _ = manager.submit(counter_request(max_states=999))
            await wait_terminal(after)
            await manager.shutdown()
            return job, after

        job, after = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.error.startswith(
            f"check process sent a malformed frame b'{frame}"), job.error
        assert "Traceback" not in job.error
        assert self._journal_counts(tmp_path, job.id)["failed"] == 1
        assert after.state == "done" and after.result["verdict"] == "ok"

    def test_check_process_command_runs_clean_under_w_error(self):
        # the child's module is imported once: a warning of its own
        # (runpy re-executing an imported module) would be fatal here
        command = CheckProcess.command
        root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=root)
        done = subprocess.run([command[0], "-W", "error", *command[1:]],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_check_error_is_the_job_error(self, tmp_path):
        # an exception inside the check comes back as the job's error,
        # and the child stays warm for the next job
        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            # a request that passes admission but not the child's parse
            bad = counter_request(module_source="MODULE Bad\nInit == x =")
            job, _ = manager.submit(bad, prevalidated=True)
            await wait_terminal(job)
            pid = manager.health()["check_processes"]
            after, _ = manager.submit(counter_request())
            await wait_terminal(after)
            again = manager.health()["check_processes"]
            await manager.shutdown()
            return job, after, pid, again

        job, after, pid, again = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.error.startswith("ParseError: ")
        assert after.state == "done"
        assert pid == again


class TestRequestValidation:
    def test_from_dict_roundtrip(self):
        request = chain_request(workers=2, level_delay=0.5)
        assert CheckRequest.from_dict(request.to_dict()) == request

    def test_single_string_invariant_is_accepted(self):
        request = CheckRequest.from_dict(
            {"module_source": COUNTER_TLA, "invariants": "Small"})
        assert request.invariants == ("Small",)

    @pytest.mark.parametrize("payload, fragment", [
        ({}, "module_source"),
        ({"module_source": ""}, "module_source"),
        ({"module_source": "m", "bogus": 1}, "unknown request fields"),
        ({"module_source": "m", "max_states": 0}, "max_states"),
        ({"module_source": "m", "max_states": True}, "max_states"),
        ({"module_source": "m", "checkpoint_every": 0}, "checkpoint_every"),
        ({"module_source": "m", "level_delay": -1}, "level_delay"),
        ({"module_source": "m", "level_delay": 60}, "level_delay"),
        ({"module_source": "m", "por": "yes"}, "por"),
        ({"module_source": "m", "invariants": [1]}, "invariants"),
    ])
    def test_bad_payloads_rejected(self, payload, fragment):
        with pytest.raises(ValueError, match=fragment):
            CheckRequest.from_dict(payload)

    def test_oversized_module_source_rejected(self):
        # the cap keeps admission-time parsing and journal lines bounded
        huge = "M" * (MAX_MODULE_SOURCE + 1)
        with pytest.raises(ValueError, match="at most"):
            CheckRequest.from_dict({"module_source": huge})
        # exactly at the cap is still only a parse error, not a size one
        with pytest.raises(ValueError) as excinfo:
            CheckRequest.from_dict({"module_source": "M" * MAX_MODULE_SOURCE,
                                    "spec": ""})
        assert "at most" not in str(excinfo.value)


@pytest.fixture
def run_check_full(monkeypatch):
    """``run_check`` with the pipeline's engine choice pinned to the full
    dict-backed engine -- the reference a compact run must reproduce."""
    def run(request):
        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.choose_mode",
                          lambda *args, **kwargs: "parallel")
            return run_check(request)
    return run


class TestCompactRequests:
    """The compact engine is the service's default: same verdict, same
    trace, same graph digest as the full engine, properties included
    and with no note, and the retired ``compact`` and ``por`` fields of
    a request are accepted and dropped."""

    def test_verdict_trace_and_digest_match_full(self, run_check_full):
        full = run_check_full(counter_request(
            invariants=("Small", "TooSmall")))
        compact = run_check(counter_request(
            invariants=("Small", "TooSmall")))
        assert compact["verdict"] == full["verdict"] == "violation"
        assert compact["graph_digest"] == full["graph_digest"]
        assert compact["checks"] == full["checks"]
        assert (compact["states"], compact["edges"], compact["stutter"]) \
            == (full["states"], full["edges"], full["stutter"])
        assert compact["stats"]["engine"] == "compact"
        assert full["stats"]["engine"] == "full"
        assert compact["stats"]["fingerprint_collisions"] == 0
        assert "collision_probability_bound" in compact["stats"]

    def test_properties_run_on_compact_without_a_note(self):
        result = run_check(counter_request(properties=("Progress",)))
        assert result["verdict"] == "ok"
        assert result["notes"] == []
        assert result["stats"]["engine"] == "compact"

    def test_explosion_verdict_matches_full(self, run_check_full):
        full = run_check_full(chain_request(max_states=5))
        compact = run_check(chain_request(max_states=5))
        assert compact["verdict"] == full["verdict"] == "explosion"
        assert compact["error"] == full["error"]

    def test_from_dict_accepts_and_roundtrips_compact(self):
        """Journals and clients from before a field was retired still
        load: ``compact`` and ``por`` are accepted, dropped, and leave
        neither the request nor its cache identity different."""
        plain = CheckRequest.from_dict({"module_source": COUNTER_TLA})
        for field in ("compact", "por"):
            for flag in (True, False):
                request = CheckRequest.from_dict(
                    {"module_source": COUNTER_TLA, field: flag})
                assert request == plain
                assert request.fingerprint() == plain.fingerprint()
            assert field not in plain.to_dict()
            assert field not in plain.semantic_config()
        assert CheckRequest.from_dict(plain.to_dict()) == plain

    @pytest.mark.parametrize("payload, fragment", [
        ({"module_source": "m", "compact": 1}, "compact"),
    ])
    def test_bad_compact_payloads_rejected(self, payload, fragment):
        with pytest.raises(ValueError, match=fragment):
            CheckRequest.from_dict(payload)

    def test_compact_job_through_the_manager(self, tmp_path, run_check_full):
        async def scenario():
            manager = JobManager(str(tmp_path / "svc"), pool_size=1)
            await manager.start()
            job, disposition = manager.submit(CheckRequest.from_dict(
                {"module_source": COUNTER_TLA, "invariants": ["TooSmall"],
                 "compact": True}))
            assert disposition == "created"
            await wait_terminal(job)
            await manager.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result["verdict"] == "violation"
        assert job.result["stats"]["engine"] == "compact"
        reference = run_check_full(counter_request(invariants=("TooSmall",)))
        assert job.result["graph_digest"] == reference["graph_digest"]
