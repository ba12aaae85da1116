"""Client-side production behaviour: the 429 retry loop (Retry-After
honoured, exponential backoff capped, jitter applied -- all with an
injectable clock so the tests are deterministic), tenant headers, and
the ``repro admin`` operator verbs over a live server."""

import io
import json
import random
import time

import pytest

from repro.service import (
    BackgroundServer,
    QueueFullError,
    ServiceClient,
    TenantPolicy,
)
from repro.tools.cli import main

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
"""


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class ZeroRandom(random.Random):
    """rng whose random() is always 0.0: jitter drops out of the math."""

    def random(self):
        return 0.0


class TestBackoffMath:
    def test_server_hint_is_the_floor(self):
        client = ServiceClient(sleep=lambda _: None, rng=ZeroRandom())
        # hint dominates while it exceeds the exponential
        assert client._backoff_delay(0, 3.0) == 3.0
        # exponential dominates once it outgrows the hint
        assert client._backoff_delay(6, 3.0) == pytest.approx(5.0)

    def test_exponential_growth_is_capped(self):
        client = ServiceClient(backoff_base=0.1, backoff_cap=5.0,
                               sleep=lambda _: None, rng=ZeroRandom())
        delays = [client._backoff_delay(n, 0.0) for n in range(8)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert delays[-1] == 5.0  # capped, not 12.8

    def test_jitter_stretches_up_to_25_percent(self):
        class OneRandom(random.Random):
            def random(self):
                return 1.0

        client = ServiceClient(sleep=lambda _: None, rng=OneRandom())
        assert client._backoff_delay(0, 2.0) == pytest.approx(2.5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient(retries=-1)


class TestRetryLoop:
    def test_throttled_submit_retries_and_lands(self, tmp_path):
        # burst=1 and a slow refill (0.5 tokens/s, so the window stays
        # open across the first submit's roundtrip even on a loaded
        # machine): the second submission is throttled by its own
        # bucket, and the client must sleep ~the refill and succeed
        slept = []

        def recording_sleep(delay):
            slept.append(delay)
            time.sleep(delay)

        with BackgroundServer(
                str(tmp_path / "svc"),
                tenant_policy=TenantPolicy(rate=0.5, burst=1)) as server:
            client = ServiceClient(
                server.url, tenant="alice", retries=4,
                sleep=recording_sleep, rng=ZeroRandom())
            first = client.submit(COUNTER_TLA, invariants=["Small"])
            assert first["disposition"] == "created"
            # different max_states: a distinct job, not a cache hit
            second = client.submit(COUNTER_TLA, invariants=["Small"],
                                   max_states=999)
            assert second["disposition"] == "created"
        assert slept, "the second submit should have been throttled"
        # every sleep honoured the bucket-derived Retry-After
        assert all(delay >= 0.1 for delay in slept)

    def test_retries_zero_fails_fast_with_tenant_and_reason(self, tmp_path):
        with BackgroundServer(
                str(tmp_path / "svc"),
                tenant_policy=TenantPolicy(rate=0.001, burst=1)) as server:
            client = ServiceClient(server.url, tenant="bob", retries=0)
            client.submit(COUNTER_TLA, invariants=["Small"])
            with pytest.raises(QueueFullError) as info:
                client.submit(COUNTER_TLA, invariants=["Small"],
                              max_states=999)
        assert info.value.tenant == "bob"
        assert info.value.reason == "rate"
        assert info.value.retry_after > 0

    def test_budget_exhaustion_reraises(self, tmp_path):
        slept = []
        with BackgroundServer(
                str(tmp_path / "svc"),
                tenant_policy=TenantPolicy(rate=0.001, burst=1)) as server:
            client = ServiceClient(
                server.url, tenant="carol", retries=2, backoff_cap=0.01,
                sleep=lambda d: slept.append(d), rng=ZeroRandom())
            client.submit(COUNTER_TLA, invariants=["Small"])
            with pytest.raises(QueueFullError):
                # rate 0.001/s: no token will land during the test; the
                # fake sleep keeps the 2 retries instant
                client.submit(COUNTER_TLA, invariants=["Small"],
                              max_states=999, retries=2)
        assert len(slept) == 2

    def test_tenant_header_reaches_the_scheduler(self, tmp_path):
        with BackgroundServer(str(tmp_path / "svc")) as server:
            client = ServiceClient(server.url, tenant="team-7")
            job = client.submit(COUNTER_TLA, invariants=["Small"])["job"]
            assert job["tenant"] == "team-7"
            assert "team-7" in client.tenants()


SLOW_TLA = """
MODULE Slow
VARIABLE x \\in 0..20
Init == x = 0
Next == x' = IF x < 20 THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Bound == x <= 20
"""


class TestWait:
    """``wait`` follows the job's event stream: one look at the job
    before and one after, however long the job runs."""

    def slow_job(self, client):
        # 21 BFS levels, each paced 0.05 s: about a second of running
        return client.submit(SLOW_TLA, invariants=["Bound"],
                             level_delay=0.05)["job"]["id"]

    def test_follows_the_stream_instead_of_polling(self, tmp_path,
                                                   monkeypatch):
        with BackgroundServer(str(tmp_path / "svc")) as server:
            client = ServiceClient(server.url)
            job_id = self.slow_job(client)
            looks = []
            real_job = client.job
            monkeypatch.setattr(client, "job", lambda job_id: looks.append(
                job_id) or real_job(job_id))
            final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        assert final["result"]["verdict"] == "ok"
        assert looks == [job_id, job_id]

    def test_reopens_a_stream_that_ends_before_the_job(self, tmp_path,
                                                       monkeypatch):
        with BackgroundServer(str(tmp_path / "svc")) as server:
            client = ServiceClient(server.url)
            job_id = self.slow_job(client)
            opened = []
            real_events = client.events

            def events(job_id, timeout=None):
                opened.append(job_id)
                if len(opened) == 1:
                    return (event for event in ())  # closed at once
                return real_events(job_id, timeout=timeout)

            monkeypatch.setattr(client, "events", events)
            final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        assert len(opened) == 2

    def test_timeout_names_the_state_it_left_the_job_in(self, tmp_path):
        with BackgroundServer(str(tmp_path / "svc")) as server:
            client = ServiceClient(server.url)
            job_id = self.slow_job(client)
            with pytest.raises(TimeoutError) as excinfo:
                client.wait(job_id, timeout=0.2)
            client.cancel(job_id)
        assert str(excinfo.value).startswith(f"job {job_id} still ")
        assert str(excinfo.value).endswith(" after 0.2s")


class TestAdminVerbs:
    @pytest.fixture
    def server(self, tmp_path):
        with BackgroundServer(str(tmp_path / "svc")) as background:
            client = ServiceClient(background.url, tenant="alice")
            job_id = client.submit(COUNTER_TLA,
                                   invariants=["Small"])["job"]["id"]
            client.wait(job_id, timeout=60)
            yield background

    def test_admin_metrics_prints_prometheus_text(self, server):
        code, text = run_cli("admin", "metrics", "--at", server.url)
        assert code == 0
        assert "# TYPE repro_jobs_admitted_total counter" in text
        assert 'repro_jobs_admitted_total{tenant="alice"} 1' in text

    def test_admin_tenants_table_and_json(self, server):
        code, text = run_cli("admin", "tenants", "--at", server.url)
        assert code == 0
        assert "alice" in text and "completed" in text
        code, text = run_cli("admin", "tenants", "--at", server.url,
                             "--json")
        assert code == 0
        assert json.loads(text)["alice"]["completed"] == 1

    def test_admin_jobs_table_and_json(self, server):
        code, text = run_cli("admin", "jobs", "--at", server.url)
        assert code == 0
        assert "alice" in text and "done" in text and "ok" in text
        code, text = run_cli("admin", "jobs", "--at", server.url, "--json")
        assert code == 0
        (record,) = json.loads(text)
        assert record["state"] == "done"
        assert record["tenant"] == "alice"
