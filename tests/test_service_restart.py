"""Durability acceptance scenarios against real server processes:

* SIGKILL (no drain, no atexit) with jobs queued and running; a
  restarted server re-admits every one of them **exactly once** from
  the journal, and the interrupted running job resumes to the graph
  digest an uninterrupted run produces;
* ``/metrics`` reconciles with the journal across the kill: every
  admitted job is eventually completed/failed/cancelled exactly once,
  with the dead process's counters still counting;
* one front, two check processes: submissions from two tenants all
  complete and the metrics add up; SIGKILL on the front takes its
  check processes with it; a second front on a held state directory
  is refused with a usage error naming the holder.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service import ServiceClient
from repro.service.jobs import CheckRequest, run_check
from repro.service.journal import JobJournal

CHAIN_TLA = """
MODULE Chain
CONSTANT N = 40
VARIABLE x \\in 0..40
Init == x = 0
Next == x' = IF x < N THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Bound == x <= 40
"""

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
"""


def wait_until(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.05)


def spawn_server(state_dir, *extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state_dir, "--pool-size", "1", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def endpoint(state_dir):
    path = os.path.join(state_dir, "server.json")
    wait_until(lambda: os.path.exists(path), message="server.json")
    with open(path) as handle:
        return json.load(handle)


def metric_total(text, name, **labels):
    """Sum every sample of *name* whose labels include **labels."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name) or line.startswith("#"):
            continue
        match = re.match(rf"{re.escape(name)}(?:\{{([^}}]*)\}})? (\S+)$",
                         line)
        if not match:
            continue
        got = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1) or ""))
        if all(got.get(k) == v for k, v in labels.items()):
            total += float(match.group(2))
    return total


class TestSigkillRestart:
    def test_queued_jobs_survive_sigkill_exactly_once(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        fresh = run_check(CheckRequest(module_source=CHAIN_TLA,
                                       invariants=("Bound",)))

        first = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"], timeout=120)
            # pool 1: the slow chain runs, the three counters queue up
            slow_id = client.submit(CHAIN_TLA, invariants=["Bound"],
                                    level_delay=0.1)["job"]["id"]
            queued = [client.submit(COUNTER_TLA, invariants=["Small"],
                                    max_states=1000 + n)["job"]["id"]
                      for n in range(3)]
            wait_until(lambda: client.job(slow_id)["events"] >= 6,
                       message="the slow job to make checkpointed progress")
            for job_id in queued:
                assert client.job(job_id)["state"] == "queued"
            first.send_signal(signal.SIGKILL)  # no drain, no goodbye
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()

        os.unlink(os.path.join(state_dir, "server.json"))
        second = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"], timeout=120)
            all_ids = [slow_id] + queued
            for job_id in all_ids:
                final = client.wait(job_id, timeout=120)
                assert final["state"] == "done", (job_id, final)
                assert final["result"]["verdict"] == "ok"

            # the interrupted running job resumed to the digest an
            # uninterrupted run produces (the checkpoint was honoured)
            resumed = client.job(slow_id)
            assert resumed["result"]["graph_digest"] \
                == fresh["graph_digest"]
            assert resumed["result"]["states"] == fresh["states"]

            # /metrics reconciles with the journal across the kill:
            # the dead process's admitted counters still count, and
            # admitted == completed with nothing lost or duplicated
            text = client.metrics()
            admitted = metric_total(text, "repro_jobs_admitted_total")
            completed = metric_total(text, "repro_jobs_completed_total")
            failed = metric_total(text, "repro_jobs_failed_total")
            cancelled = metric_total(text, "repro_jobs_cancelled_total")
            assert admitted == float(len(all_ids))
            assert admitted == completed + failed + cancelled

            second.send_signal(signal.SIGTERM)
            second.wait(timeout=30)
        finally:
            if second.poll() is None:
                second.kill()
        assert second.returncode == 0

        # exactly once, straight from the journal: one submitted and one
        # done per job, and each re-admission left a claim trail
        folded = JobJournal(os.path.join(state_dir, "journal")).replay()
        for job_id in [slow_id] + queued:
            record = folded[job_id]
            assert record["state"] == "done", (job_id, record)
            assert record["counts"]["submitted"] == 1
            assert record["counts"]["done"] == 1
            assert record["counts"].get("claimed", 0) >= 1

    def test_journal_only_job_is_rebuilt_after_sigkill(self, tmp_path):
        # kill the server so fast the job may exist only as journal
        # lines; the journal stores the full request, so recovery can
        # rebuild and run it either way
        state_dir = str(tmp_path / "svc")
        first = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"])
            job_id = client.submit(COUNTER_TLA,
                                   invariants=["Small"])["job"]["id"]
            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()

        os.unlink(os.path.join(state_dir, "server.json"))
        second = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"], timeout=120)
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["result"]["verdict"] == "ok"
            second.send_signal(signal.SIGTERM)
            second.wait(timeout=30)
        finally:
            if second.poll() is None:
                second.kill()


class TestMultiProcess:
    def test_two_procs_one_port_two_tenants(self, tmp_path):
        # one front, --pool-size 2: two check processes behind one port
        state_dir = str(tmp_path / "svc")
        server = spawn_server(state_dir, "--pool-size", "2")
        try:
            url = endpoint(state_dir)["url"]
            job_ids = []
            for offset, tenant in ((2000, "alice"), (3000, "bob")):
                client = ServiceClient(url, tenant=tenant, timeout=120)
                # distinct max_states per job AND per tenant: nothing
                # coalesces or caches, every submission is an admission
                for n in range(3):
                    job_ids.append(
                        (client,
                         client.submit(CHAIN_TLA, invariants=["Bound"],
                                       level_delay=0.01,
                                       max_states=offset + n)["job"]["id"]))
            for client, job_id in job_ids:
                final = client.wait(job_id, timeout=120)
                assert final["state"] == "done", (job_id, final)
                assert final["result"]["verdict"] == "ok"

            health = ServiceClient(url).health()
            assert health["pool_size"] == 2
            assert len(set(health["check_processes"])) == 2
            assert server.pid not in health["check_processes"]
            text = ServiceClient(url).metrics()
            admitted = metric_total(text, "repro_jobs_admitted_total")
            completed = metric_total(text, "repro_jobs_completed_total")
            assert admitted == 6.0
            assert completed == 6.0
            for tenant in ("alice", "bob"):
                assert metric_total(text, "repro_jobs_admitted_total",
                                    tenant=tenant) == 3.0

            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
        assert server.returncode == 0
        # the drain reaped both check processes
        for pid in health["check_processes"]:
            assert not _pid_alive(pid)

    def test_second_front_on_a_held_state_dir_exits_2(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        first = spawn_server(state_dir)
        try:
            endpoint(state_dir)
            second = spawn_server(state_dir)
            output, _ = second.communicate(timeout=60)
            assert second.returncode == 2
            lines = output.decode().splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith("error: ")
            assert f"pid {first.pid}" in lines[0]
            assert "Traceback" not in lines[0]
            # the refused front touched nothing the holder serves
            client = ServiceClient(endpoint(state_dir)["url"])
            assert client.health()["pid"] == first.pid
            first.send_signal(signal.SIGTERM)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
        assert first.returncode == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_children_drain_when_parent_is_sigkilled(self, tmp_path):
        # SIGKILL on the front cannot be caught: its check processes
        # must still go (parent-death signal), and the next front
        # resumes the interrupted job to the uninterrupted digest
        state_dir = str(tmp_path / "svc")
        fresh = run_check(CheckRequest(module_source=CHAIN_TLA,
                                       invariants=("Bound",)))
        server = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"], timeout=120)
            job_id = client.submit(CHAIN_TLA, invariants=["Bound"],
                                   level_delay=0.1)["job"]["id"]
            wait_until(lambda: client.job(job_id)["events"] >= 4,
                       message="the job to make checkpointed progress")
            children = client.health()["check_processes"]
            assert len(children) == 1, children
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=30)
            wait_until(lambda: not any(_pid_alive(pid) for pid in children),
                       timeout=10,
                       message="the check processes to die with the front")
        finally:
            if server.poll() is None:
                server.kill()

        os.unlink(os.path.join(state_dir, "server.json"))
        second = spawn_server(state_dir)
        try:
            client = ServiceClient(endpoint(state_dir)["url"], timeout=120)
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done", final
            assert final["result"]["graph_digest"] == fresh["graph_digest"]
            events = [e["event"] for e in client.events(job_id)]
            assert "requeued" in events
            second.send_signal(signal.SIGTERM)
            second.wait(timeout=30)
        finally:
            if second.poll() is None:
                second.kill()
        assert second.returncode == 0


def _pid_alive(pid):
    """Running, not merely an unreaped zombie (an orphan's reaper may
    be slow, or absent in a container)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != b"Z"
