"""End-to-end service coverage over real sockets: the HTTP surface
(BackgroundServer + ServiceClient), N concurrent clients coalescing
onto one exploration, the CLI verbs (submit/watch/cancel), and the
acceptance scenario run for real -- ``python -m repro serve`` killed
with SIGTERM mid-job checkpoints, and a restarted server resumes the
job to the identical graph digest."""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

import pytest

from repro import records
from repro.service import BackgroundServer, QueueFullError, ServiceClient
from repro.service.jobs import EVENTS_MAGIC, CheckRequest, run_check
from repro.service.journal import JobJournal
from repro.tools.cli import main

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
TooSmall == x < 2
"""

CHAIN_TLA = """
MODULE Chain
CONSTANT N = 40
VARIABLE x \\in 0..40
Init == x = 0
Next == x' = IF x < N THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Bound == x <= 40
"""


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(str(tmp_path / "svc")) as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.05)


class TestHttpSurface:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queued"] == 0
        assert health["cache"]["entries"] == 0

    def test_submit_wait_fetch(self, client):
        payload = client.submit(COUNTER_TLA, invariants=["Small"])
        assert payload["disposition"] == "created"
        job = payload["job"]
        record = client.wait(job["id"])
        assert record["state"] == "done"
        assert record["result"]["verdict"] == "ok"
        assert record["cache_hit"] is False
        assert [j["id"] for j in client.list_jobs()] == [job["id"]]

    def test_resubmission_hits_the_cache_over_http(self, client):
        first = client.submit(COUNTER_TLA, invariants=["Small"])
        done = client.wait(first["job"]["id"])
        second = client.submit(COUNTER_TLA, invariants=["Small"])
        assert second["disposition"] == "cached"
        assert second["job"]["state"] == "done"
        assert second["job"]["cache_hit"] is True
        assert second["job"]["result"] == done["result"]
        health = client.health()
        assert health["cache"]["hits"] == 1

    def test_violation_trace_travels_through_the_wire(self, client):
        payload = client.submit(COUNTER_TLA, invariants=["TooSmall"])
        record = client.wait(payload["job"]["id"])
        assert record["result"]["verdict"] == "violation"
        (check,) = record["result"]["checks"]
        assert check["counterexample"]["rendered"]

    def test_events_stream_replays_and_follows(self, client):
        payload = client.submit(CHAIN_TLA, invariants=["Bound"],
                                level_delay=0.02)
        events = list(client.events(payload["job"]["id"], timeout=60))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds.count("level") == 41
        assert kinds[-1] == "done"
        assert [event["seq"] for event in events] \
            == list(range(len(events)))

    def test_unknown_job_is_404(self, client):
        with pytest.raises(Exception) as excinfo:
            client.job("nope")
        assert excinfo.value.status == 404

    def test_traversal_job_ids_are_404_and_touch_nothing(self, server,
                                                         tmp_path):
        # jobs/<id>.* paths are derived from the URL; a traversal id
        # must be rejected outright, for GET, GET /events, and DELETE
        # (which used to be able to drop a ".cancel" file at an
        # attacker-chosen path)
        state_dir = tmp_path / "svc"
        bait = state_dir / "bait.json"
        bait.write_text(json.dumps({"id": "x", "state": "queued"}))
        for method, path in (
                ("GET", "/jobs/../bait"),
                ("GET", "/jobs/../bait/events"),
                ("DELETE", "/jobs/../bait"),
                ("GET", "/jobs/..%2fbait"),
                ("DELETE", "/jobs/../../../../home/user/secrets")):
            conn = HTTPConnection(server.service.host, server.service.port,
                                  timeout=10)
            conn.request(method, path)
            assert conn.getresponse().status == 404, (method, path)
            conn.close()
        assert not (state_dir / "bait.cancel").exists()
        assert list(state_dir.glob("**/*.cancel")) == []

    def test_bad_module_is_400(self, client):
        with pytest.raises(Exception) as excinfo:
            client.submit("MODULE Bad\nInit == x =")
        assert excinfo.value.status == 400

    def test_unknown_field_is_400(self, server):
        conn = HTTPConnection(server.service.host, server.service.port,
                              timeout=10)
        body = json.dumps({"module_source": COUNTER_TLA, "bogus": 1})
        conn.request("POST", "/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "unknown request fields" in payload["error"]

    def test_wrong_method_is_405_and_wrong_path_404(self, server):
        for method, path, expected in (("PUT", "/jobs", 405),
                                       ("GET", "/nope", 404)):
            conn = HTTPConnection(server.service.host, server.service.port,
                                  timeout=10)
            conn.request(method, path)
            assert conn.getresponse().status == expected
            conn.close()

    def test_cancel_done_job_rejected(self, client):
        payload = client.submit(COUNTER_TLA, invariants=["Small"])
        client.wait(payload["job"]["id"])
        outcome = client.cancel(payload["job"]["id"])
        assert outcome["accepted"] is False

    def test_backpressure_is_429_with_retry_after(self, tmp_path):
        with BackgroundServer(str(tmp_path / "svc"), pool_size=1,
                              queue_limit=1) as background:
            # retries=0: this test asserts the raw 429, not the
            # client-side backoff (covered in test_service_client_retry)
            client = ServiceClient(background.url, retries=0)
            running = client.submit(CHAIN_TLA, invariants=["Bound"],
                                    level_delay=0.05)["job"]
            wait_until(
                lambda: client.job(running["id"])["state"] == "running",
                message="first job to start")
            queued = client.submit(CHAIN_TLA, invariants=["Bound"],
                                   max_states=1000)["job"]
            with pytest.raises(QueueFullError) as excinfo:
                client.submit(CHAIN_TLA, invariants=["Bound"],
                              max_states=1001)
            assert excinfo.value.retry_after >= 1.0
            # drain quickly so the teardown stop() has nothing slow left
            client.cancel(queued["id"])
            client.cancel(running["id"])
            wait_until(
                lambda: client.job(running["id"])["state"] == "cancelled",
                message="running job to cancel")


class TestConcurrentClients:
    def test_n_clients_one_exploration_consistent_verdicts(self, server):
        """The headline cache/coalescing property: five clients submit
        the identical check at once; exactly one exploration runs and
        every client sees the same verdict and graph digest."""
        results = [None] * 5
        barrier = threading.Barrier(len(results))

        def one_client(slot):
            client = ServiceClient(server.url)
            barrier.wait()
            payload = client.submit(CHAIN_TLA, invariants=["Bound"],
                                    level_delay=0.05)
            record = client.wait(payload["job"]["id"], timeout=120)
            results[slot] = (payload["disposition"], record)

        threads = [threading.Thread(target=one_client, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(result is not None for result in results)
        dispositions = sorted(d for d, _ in results)
        assert dispositions.count("created") == 1
        assert set(dispositions) <= {"created", "coalesced", "cached"}
        digests = {record["result"]["graph_digest"]
                   for _, record in results}
        verdicts = {record["result"]["verdict"] for _, record in results}
        assert digests == {run_check(
            CheckRequest(module_source=CHAIN_TLA, invariants=("Bound",))
        )["graph_digest"]}
        assert verdicts == {"ok"}
        # server-side: one real exploration (every other job, if any,
        # was born done from the cache)
        explored = [job for job in server.manager.jobs()
                    if not job.cache_hit]
        assert len(explored) == 1
        assert explored[0].coalesced == dispositions.count("coalesced")


class TestCliVerbs:
    def test_submit_wait_ok_exit_zero(self, server, tmp_path):
        path = tmp_path / "Counter.tla"
        path.write_text(COUNTER_TLA)
        code, text = run_cli("submit", str(path), "--invariant", "Small",
                             "--server", server.url, "--wait")
        assert code == 0
        assert "[OK] Small" in text
        assert "verdict=ok" in text

    def test_submit_wait_violation_exit_one_with_trace(self, server,
                                                       tmp_path):
        path = tmp_path / "Counter.tla"
        path.write_text(COUNTER_TLA)
        code, text = run_cli("submit", str(path), "--invariant", "TooSmall",
                             "--server", server.url, "--wait")
        assert code == 1
        assert "[FAIL]" in text or "TooSmall" in text
        assert "verdict=violation" in text

    def test_submit_json_reports_cached_disposition(self, server, tmp_path):
        path = tmp_path / "Counter.tla"
        path.write_text(COUNTER_TLA)
        code, _ = run_cli("submit", str(path), "--invariant", "Small",
                          "--server", server.url, "--wait")
        assert code == 0
        code, text = run_cli("submit", str(path), "--invariant", "Small",
                             "--server", server.url, "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["disposition"] == "cached"
        assert payload["job"]["cache_hit"] is True

    def test_watch_streams_ndjson_until_done(self, server, tmp_path):
        path = tmp_path / "Chain.tla"
        path.write_text(CHAIN_TLA)
        code, text = run_cli("submit", str(path), "--invariant", "Bound",
                             "--level-delay", "0.02",
                             "--server", server.url, "--json")
        assert code == 0
        job_id = json.loads(text)["job"]["id"]
        code, text = run_cli("watch", job_id, "--server", server.url)
        assert code == 0
        events = [json.loads(line) for line in text.splitlines() if line]
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "done"
        assert kinds.count("level") == 41

    def test_cancel_running_job_via_cli(self, server, tmp_path):
        path = tmp_path / "Chain.tla"
        path.write_text(CHAIN_TLA)
        code, text = run_cli("submit", str(path), "--invariant", "Bound",
                             "--level-delay", "0.1",
                             "--server", server.url, "--json")
        assert code == 0
        job_id = json.loads(text)["job"]["id"]
        client = ServiceClient(server.url)
        wait_until(lambda: client.job(job_id)["state"] == "running",
                   message="job to start")
        code, text = run_cli("cancel", job_id, "--server", server.url)
        assert code == 0
        assert "cancel accepted" in text
        assert client.wait(job_id)["state"] == "cancelled"

    def test_cancel_done_job_exits_one(self, server, tmp_path):
        path = tmp_path / "Counter.tla"
        path.write_text(COUNTER_TLA)
        code, text = run_cli("submit", str(path), "--invariant", "Small",
                             "--server", server.url, "--json")
        job_id = json.loads(text)["job"]["id"]
        ServiceClient(server.url).wait(job_id)
        code, text = run_cli("cancel", job_id, "--server", server.url)
        assert code == 1
        assert "cancel rejected" in text


class TestSigtermResume:
    """The acceptance scenario against the real thing: ``python -m repro
    serve`` as a subprocess, SIGTERM mid-exploration, restart, resume."""

    @staticmethod
    def _spawn(state_dir):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", state_dir, "--pool-size", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    @staticmethod
    def _endpoint(state_dir):
        path = os.path.join(state_dir, "server.json")
        wait_until(lambda: os.path.exists(path),
                   message="server.json endpoint file")
        with open(path) as handle:
            return json.load(handle)["url"]

    def test_sigterm_checkpoints_and_restart_resumes(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        fresh = run_check(CheckRequest(module_source=CHAIN_TLA,
                                       invariants=("Bound",)))
        first = self._spawn(state_dir)
        try:
            client = ServiceClient(self._endpoint(state_dir))
            job_id = client.submit(CHAIN_TLA, invariants=["Bound"],
                                   level_delay=0.1)["job"]["id"]
            # let it make real progress (each level checkpoints), then kill
            wait_until(lambda: client.job(job_id)["events"] >= 6,
                       message="a few levels of progress")
            first.send_signal(signal.SIGTERM)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
        assert first.returncode == 0

        # the drain left the job journaled as queued with its checkpoint
        record = JobJournal(os.path.join(state_dir, "journal")).replay()[
            job_id]
        assert record["state"] == "queued"
        jobs_dir = tmp_path / "svc" / "jobs"
        assert (jobs_dir / (job_id + ".ckpt")).exists()
        last = records.read(str(jobs_dir / (job_id + ".events.ndjson")),
                            EVENTS_MAGIC).records[-1]
        assert last["event"] == "interrupted" and last["resume"] is True

        os.unlink(os.path.join(state_dir, "server.json"))  # no stale port
        second = self._spawn(state_dir)
        try:
            client = ServiceClient(self._endpoint(state_dir))
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["result"]["verdict"] == "ok"
            # bit-for-bit the graph an uninterrupted run produces
            assert final["result"]["graph_digest"] == fresh["graph_digest"]
            assert final["result"]["states"] == fresh["states"]
            events = list(client.events(job_id, timeout=30))
            kinds = [event["event"] for event in events]
            assert "requeued" in kinds and "interrupted" in kinds
            second.send_signal(signal.SIGTERM)
            second.wait(timeout=30)
        finally:
            if second.poll() is None:
                second.kill()
        assert second.returncode == 0
