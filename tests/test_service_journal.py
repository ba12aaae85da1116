"""Unit tests for the append-only job journal: replay folding, torn
final frames (the SIGKILL residue), which jobs a starting front re-admits
from it (and that it claims each exactly once), snapshot compaction, and
damage in the journal, its snapshot or an event log failing closed."""

import asyncio
import json
import os
import struct

import pytest

from repro import records
from repro.service.cache import ShardedResultCache
from repro.service.jobs import (
    EVENTS_MAGIC,
    CheckRequest,
    JobManager,
    StateDirBusy,
    run_check,
)
from repro.service.journal import _MAGIC as JOURNAL_MAGIC
from repro.service.journal import JobJournal
from repro.tools.cli import main as cli_main

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
OTHER_ID = "0123456789ac"


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
        entries = records.read(journal.log_path, JOURNAL_MAGIC).records
        records.atomic_replace(journal.log_path, JOURNAL_MAGIC + b"".join(
            records.frame(dict(entry, pid=pid)) for entry in entries),
            fsync=False)
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
        with open(journal.log_path, "rb") as handle:
            frames = handle.read()[len(JOURNAL_MAGIC):]
        with open(journal.log_path, "ab") as handle:
            handle.write(frames)
        second = journal.replay()
        assert second["job-1"]["state"] == first["job-1"]["state"]
        assert second["job-1"]["tenant"] == first["job-1"]["tenant"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = journal_for(tmp_path)
        journal.append("submitted", "job-1", tenant="a")
        journal.append("submitted", "job-2", tenant="a")
        with open(journal.log_path, "ab") as handle:
            handle.write(records.frame(
                {"kind": "done", "job": "job-2", "verdict": "ok"})[:-5])
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



# a frame's prefix: body length, CRC32 of the length, CRC32 of the body
FRAME = struct.Struct(">III")


def frame_starts(path, magic):
    """The byte offset of every complete frame of the log at *path*."""
    with open(path, "rb") as handle:
        data = handle.read()
    starts, offset = [], len(magic)
    while offset + FRAME.size <= len(data):
        end = offset + FRAME.size + FRAME.unpack_from(data, offset)[0]
        if end > len(data):
            break
        starts.append(offset)
        offset = end
    return starts


def flip(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x20]))


def start_front(state_dir):
    async def scenario():
        manager = JobManager(str(state_dir), pool_size=1)
        await manager.start()
        jobs = {job.id: job.state for job in manager.jobs()}
        await manager.shutdown()
        return jobs

    return asyncio.run(scenario())


class TestDamage:
    """A torn final frame is a crash's residue and is dropped; damage
    anywhere else in the journal, its snapshot or an event log makes
    the front refuse to start, naming the file and the byte offset."""

    @staticmethod
    def damaged_journal(tmp_path):
        """job-1 submitted, started and done, then job-2 submitted; the
        ``done`` frame corrupted in place and the last frame torn, as a
        torn *middle* write would leave them."""
        journal = journal_for(tmp_path)
        request = CheckRequest(COUNTER_TLA, invariants=("Small",))
        for kind, job_id in (("submitted", JOB_ID), ("started", JOB_ID),
                             ("done", JOB_ID), ("submitted", OTHER_ID)):
            journal.append(kind, job_id, tenant="a", verdict="ok",
                           fingerprint=request.fingerprint(),
                           request=request.to_dict())
        done = frame_starts(journal.log_path, JOURNAL_MAGIC)[2]
        flip(journal.log_path, done + FRAME.size + 5)
        os.truncate(journal.log_path, journal.log_size() - 10)
        return journal, done

    def test_replay_names_the_file_and_the_offset(self, tmp_path):
        journal, done = self.damaged_journal(tmp_path)
        with pytest.raises(records.RecordError) as excinfo:
            journal.replay()
        assert excinfo.value.offset == done
        assert str(excinfo.value) == (f"{journal.log_path}: checksum "
                                      f"mismatch in the frame at byte {done}")

    def test_serve_refuses_to_start_in_one_line(self, tmp_path, capsys):
        _journal, done = self.damaged_journal(tmp_path)
        assert cli_main(["serve", "--port", "0",
                         "--state-dir", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "Traceback" not in out
        assert "journal/journal.ndjson: " in out
        assert out.endswith(f" at byte {done}\n")

    def test_cutting_at_the_offset_loses_only_what_follows(self, tmp_path):
        # the README's recovery: the records before the damage survive
        journal, done = self.damaged_journal(tmp_path)
        os.truncate(journal.log_path, done)
        assert {job_id: record["state"]
                for job_id, record in journal.replay().items()} \
            == {JOB_ID: "running"}
        assert start_front(tmp_path) == {JOB_ID: "queued"}

    def test_a_damaged_event_log_fails_closed(self, tmp_path):
        journal_submission(tmp_path, done=True)
        (tmp_path / "jobs").mkdir()
        path = str(tmp_path / "jobs" / (JOB_ID + ".events.ndjson"))
        for seq, event in enumerate(("queued", "started", "done")):
            records.append(path, EVENTS_MAGIC,
                           {"event": event, "job": JOB_ID, "seq": seq},
                           fsync=False)
        middle = frame_starts(path, EVENTS_MAGIC)[1]
        flip(path, middle + FRAME.size + 3)
        with pytest.raises(records.RecordError,
                           match=f"^{path}: .* at byte {middle}$"):
            start_front(tmp_path)
        # the refusal let go of the state directory
        os.unlink(path)
        assert start_front(tmp_path) == {JOB_ID: "done"}

    def test_an_unreadable_snapshot_fails_closed(self, tmp_path):
        # a snapshot that exists but does not parse is not "no jobs":
        # the front refuses instead of starting empty and folding a
        # smaller snapshot over it
        journal = journal_submission(tmp_path, done=True)
        journal.compact()
        with open(journal.snapshot_path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal.snapshot_path) // 2)
        with pytest.raises(records.RecordError,
                           match=f"^{journal.snapshot_path}: "):
            journal.replay()
        with pytest.raises(records.RecordError, match="snapshot"):
            start_front(tmp_path)
        os.unlink(journal.snapshot_path)   # only an absent one is empty
        assert start_front(tmp_path) == {}

    def test_a_starting_front_compacts_a_torn_tail(self, tmp_path):
        # appending behind a torn frame would turn it into damage in the
        # middle of the file on the next restart
        journal = journal_submission(tmp_path)
        with open(journal.log_path, "ab") as handle:
            handle.write(records.frame({"kind": "done", "job": JOB_ID})[:7])

        async def scenario():
            manager = JobManager(str(tmp_path), pool_size=1)
            await manager.start()
            log = records.read(journal.log_path, JOURNAL_MAGIC)
            await manager.shutdown()
            return log

        log = asyncio.run(scenario())
        assert not log.torn
        assert [entry["kind"] for entry in log.records] == ["claimed"]


def test_the_snapshot_is_synced_before_the_log_is_truncated(tmp_path,
                                                            monkeypatch):
    journal = journal_for(tmp_path)
    journal.append("submitted", "job-1", tenant="a")
    size = journal.log_size()
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append((os.fstat(fd).st_size, journal.log_size()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    journal.compact()
    # one fsync, of the whole snapshot, while the log still held it all
    assert synced == [(os.path.getsize(journal.snapshot_path), size)]
    assert journal.log_size() == 0
