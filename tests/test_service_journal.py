"""Unit tests for the append-only job journal: replay folding, torn
final lines (the SIGKILL residue), which jobs a starting front re-admits
from it (and that it claims each exactly once), and snapshot
compaction."""

import asyncio
import json
import os

import pytest

from repro.service.cache import ShardedResultCache
from repro.service.jobs import CheckRequest, JobManager, StateDirBusy, run_check
from repro.service.journal import JobJournal

DEAD_PID = 999999999  # beyond pid_max on any Linux

COUNTER_TLA = """
MODULE Counter
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % 3
Spec == Init /\\ [][Next]_<<x>>
Small == x < 3
"""
JOB_ID = "0123456789ab"


def journal_for(tmp_path):
    return JobJournal(str(tmp_path / "journal"))


def journal_submission(tmp_path, pid=None, done=False):
    """A job as a front that has exited left it: journal lines only,
    written by process *pid*."""
    journal = journal_for(tmp_path)
    request = CheckRequest(COUNTER_TLA, invariants=("Small",))
    journal.append("submitted", JOB_ID, tenant="a",
                   fingerprint=request.fingerprint(),
                   request=request.to_dict())
    if done:
        journal.append("done", JOB_ID, verdict="ok")
    if pid is not None:
        with open(journal.log_path) as handle:
            lines = [json.loads(line) for line in handle]
        with open(journal.log_path, "w") as handle:
            for line in lines:
                handle.write(json.dumps(dict(line, pid=pid)) + "\n")
    return journal


def readmitted(tmp_path):
    """Start a front on *tmp_path* and report what it re-admitted."""
    async def scenario():
        manager = JobManager(str(tmp_path), pool_size=1)
        await manager.start()
        job = manager.get(JOB_ID)
        queued = job is not None and job.state in ("queued", "running")
        await manager.shutdown()
        return queued

    return asyncio.run(scenario())


class TestReplay:
    def test_lifecycle_folds_to_one_record(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="alice",
                       fingerprint="f" * 16, request={"spec": "Spec"})
        journal.append("started", "job-1")
        journal.append("done", "job-1", verdict="ok")
        jobs = journal.replay()
        assert set(jobs) == {"job-1"}
        record = jobs["job-1"]
        assert record["state"] == "done"
        assert record["tenant"] == "alice"
        assert record["verdict"] == "ok"
        assert record["request"] == {"spec": "Spec"}
        assert record["counts"] == {"submitted": 1, "started": 1, "done": 1}

    def test_replay_is_idempotent_under_reapplied_suffix(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="a")
        journal.append("started", "job-1")
        first = journal.replay()
        # duplicate the whole log (a replayed suffix): the fold keyed by
        # job id reaches the same state, only the counts change
        with open(journal.log_path) as handle:
            lines = handle.read()
        with open(journal.log_path, "a") as handle:
            handle.write(lines)
        second = journal.replay()
        assert second["job-1"]["state"] == first["job-1"]["state"]
        assert second["job-1"]["tenant"] == first["job-1"]["tenant"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="a")
        journal.append("submitted", "job-2", tenant="a")
        with open(journal.log_path, "a") as handle:
            handle.write('{"kind": "done", "job": "job-2", "verd')
        jobs = journal.replay()
        assert jobs["job-2"]["state"] == "queued"  # torn write lost
        assert journal.torn_lines == 1

    def test_requeued_returns_running_job_to_queue(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="a")
        journal.append("started", "job-1")
        journal.append("requeued", "job-1")
        assert journal.replay()["job-1"]["state"] == "queued"


class TestOrphans:
    """A starting front holds its state directory, so every unfinished
    job in the journal was left by a front that has exited: it is
    re-admitted, whoever wrote it and whatever that pid is now."""

    def test_dead_owner_is_orphaned(self, tmp_path):
        journal_submission(tmp_path, pid=DEAD_PID)
        assert readmitted(tmp_path)

    def test_own_pid_is_claimable(self, tmp_path):
        # an in-process manager restart: same pid, jobs must be re-owned
        journal_submission(tmp_path)
        assert readmitted(tmp_path)

    def test_live_foreign_owner_is_left_alone(self, tmp_path):
        # a live front holds the directory: a second one cannot start,
        # so it claims nothing
        journal = journal_submission(tmp_path)

        async def scenario():
            holder = JobManager(str(tmp_path), pool_size=1)
            await holder.start()
            second = JobManager(str(tmp_path), pool_size=1)
            with pytest.raises(StateDirBusy, match=f"pid {os.getpid()}"):
                await second.start()
            await holder.shutdown()

        asyncio.run(scenario())
        # only the holder's one claim
        assert len(journal.replay()[JOB_ID]["claims"]) == 1

    def test_recycled_pid_owner_is_orphaned(self, tmp_path):
        # the writer's pid now names an unrelated live process: liveness
        # is the directory lock, not a pid, so the job is still re-run
        journal_submission(tmp_path, pid=os.getppid() or 1)
        assert readmitted(tmp_path)

    def test_terminal_jobs_are_never_orphans(self, tmp_path):
        journal = journal_submission(tmp_path, pid=DEAD_PID, done=True)
        assert not readmitted(tmp_path)
        assert journal.replay()[JOB_ID]["claims"] == []

    def test_claim_transfers_ownership_exactly_once(self, tmp_path):
        # recovery claims each unfinished job once per start; the next
        # start (after it ran) claims nothing
        journal = journal_submission(tmp_path, pid=DEAD_PID)

        async def life():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            job = manager.get(JOB_ID)
            while not job.terminal:
                await asyncio.sleep(0.02)
            await manager.shutdown()
            return job.state

        assert asyncio.run(life()) == "done"
        assert asyncio.run(life()) == "done"   # nothing left to claim
        record = journal.replay()[JOB_ID]
        assert record["state"] == "done"
        assert [claim["pid"] for claim in record["claims"]] \
            == [os.getpid()]
        assert record["counts"]["done"] == 1


class TestCompaction:
    def test_compact_truncates_log_preserving_state(self, tmp_path):
        journal = journal_for(tmp_path)
        for n in range(20):
            journal.append("submitted", f"job-{n}", tenant="a",
                           request={"n": n})
        journal.append("done", "job-0", verdict="ok")
        size_before = journal.log_size()
        retained = journal.compact()
        assert retained == 20
        assert journal.log_size() == 0
        assert size_before > 0
        jobs = journal.replay()
        assert jobs["job-0"]["state"] == "done"
        assert jobs["job-5"]["state"] == "queued"
        assert jobs["job-5"]["request"] == {"n": 5}

    def test_appends_after_compaction_layer_on_snapshot(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="a")
        journal.compact()
        journal.append("started", "job-1")
        journal.append("done", "job-1", verdict="ok")
        assert journal.replay()["job-1"]["state"] == "done"

    def test_finished_jobs_drop_their_request(self, tmp_path):
        # a finished job is served from the cache by its fingerprint, so
        # its request (the module source) leaves the snapshot; a queued
        # job keeps its own, which re-admission rebuilds the job from
        done = CheckRequest(COUNTER_TLA, invariants=("Small",))
        queued = CheckRequest(COUNTER_TLA, invariants=("Small",),
                              max_states=1000)
        result = run_check(done)
        ShardedResultCache(str(tmp_path / "cache")).put(
            done.fingerprint(), result)
        journal = journal_for(tmp_path)
        for job_id, request in (("d00000000001", done), (JOB_ID, queued)):
            journal.append("submitted", job_id, tenant="a",
                           fingerprint=request.fingerprint(),
                           request=request.to_dict())
        journal.append("done", "d00000000001", verdict="ok")
        journal.compact()
        with open(journal.snapshot_path) as handle:
            jobs = json.load(handle)["jobs"]
        assert "request" not in jobs["d00000000001"]
        assert jobs[JOB_ID]["request"] == queued.to_dict()

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            finished = manager.get("d00000000001")
            readmitted = manager.get(JOB_ID)
            seen = (finished.state, finished.result,
                    readmitted.state in ("queued", "running"),
                    readmitted.request.to_dict())
            await manager.shutdown()
            return seen

        assert asyncio.run(scenario()) \
            == ("done", result, True, queued.to_dict())

