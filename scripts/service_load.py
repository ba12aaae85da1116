#!/usr/bin/env python3
"""Load test for the multi-tenant checking service, CI-runnable.

Boots one ``python -m repro serve`` front with ``--pool-size`` check
processes as a real subprocess on an ephemeral port, then drives ``--clients`` concurrent submissions split
across ``--tenants`` tenants (every submission a distinct check, so
nothing coalesces or caches away) and reports:

* the end-to-end latency distribution (p50/p95/p99/mean/max, measured
  submit-call to terminal-state);
* per-tenant batch completion times and the **fairness ratio**
  (slowest tenant / fastest tenant) -- deficit-round-robin dispatch
  must keep it within ``--fairness-factor`` (default 2.0);
* **zero lost, zero duplicated jobs**, proven two ways: every job id
  reaches ``done`` over HTTP, and the journal's fold shows exactly one
  ``submitted`` and one ``done`` per id;
* ``/metrics`` reconciliation: admitted == completed + failed +
  cancelled once the queue is drained.

The JSON report lands at ``--out``; the CI ``service-load`` job uploads
it.  Service speed is measured by ``bench/run.py`` (its ``serve``
workload, see ``bench/README.md``).  Prints ``PASS`` and exits 0, or
dies with the first violated assertion.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service import ServiceClient  # noqa: E402
from repro.service.journal import JobJournal  # noqa: E402

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


def spawn_server(state_dir, pool_size, queue_limit):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state_dir, "--pool-size", str(pool_size),
         "--queue-limit", str(queue_limit)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def discover_url(state_dir):
    path = os.path.join(state_dir, "server.json")
    wait_until(lambda: os.path.exists(path), message="server.json")
    with open(path) as handle:
        return json.load(handle)["url"]


def answering(url):
    try:
        return ServiceClient(url, timeout=5).health()["status"] == "ok"
    except OSError:
        return False


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def metric_total(text, name):
    total = 0.0
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            total += float(match.group(1))
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=1000,
                        help="total submissions (default 1000)")
    parser.add_argument("--tenants", type=int, default=2,
                        help="tenants splitting the submissions (default 2)")
    parser.add_argument("--threads", type=int, default=100,
                        help="client threads driving them (default 100)")
    parser.add_argument("--pool-size", type=int, default=4,
                        help="check processes (default 4)")
    parser.add_argument("--fairness-factor", type=float, default=2.0,
                        help="max allowed slowest/fastest tenant batch "
                             "ratio (default 2.0)")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="JSON report path (CI uploads it)")
    parser.add_argument("--state-dir", default=None,
                        help="service state dir (default: a tempdir)")
    args = parser.parse_args()

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-load-")
    server = spawn_server(state_dir, args.pool_size,
                          queue_limit=args.clients + args.threads)
    tenants = [f"tenant-{n}" for n in range(args.tenants)]
    lock = threading.Lock()
    latencies = []
    dispositions = {}
    tenant_done_at = {name: 0.0 for name in tenants}
    retry_sleeps = [0]
    job_ids = []
    failures = []

    def drive(serial):
        tenant = tenants[serial % len(tenants)]

        def counted_sleep(delay):
            with lock:
                retry_sleeps[0] += 1
            time.sleep(delay)

        client = ServiceClient(url, tenant=tenant, timeout=120,
                               retries=8, sleep=counted_sleep)
        begin = time.perf_counter()
        try:
            # a distinct max_states per submission: every job is real,
            # none coalesce onto a sibling or hit the cache
            submitted = client.submit(COUNTER_TLA, invariants=["Small"],
                                      max_states=10_000 + serial)
            job_id = submitted["job"]["id"]
            final = client.wait(job_id, timeout=300, poll=0.05)
            elapsed = time.perf_counter() - begin
            assert final["state"] == "done", (job_id, final["state"])
            assert final["result"]["verdict"] == "ok", job_id
            with lock:
                latencies.append(elapsed)
                disposition = submitted["disposition"]
                dispositions[disposition] = \
                    dispositions.get(disposition, 0) + 1
                tenant_done_at[tenant] = max(tenant_done_at[tenant],
                                             time.perf_counter())
                job_ids.append(job_id)
        except BaseException as exc:  # noqa: BLE001 - reported, re-raised
            with lock:
                failures.append((serial, repr(exc)))
            raise

    try:
        url = discover_url(state_dir)
        wait_until(lambda: answering(url), message="the server")
        print(f"server up at {url} (pool {args.pool_size}); driving {args.clients} submissions "
              f"from {args.tenants} tenants over {args.threads} threads")

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            list(pool.map(drive, range(args.clients)))
        wall = time.perf_counter() - start
        assert not failures, failures[:5]

        batch_walls = {name: done - start
                       for name, done in tenant_done_at.items()}
        fairness = (max(batch_walls.values())
                    / max(min(batch_walls.values()), 1e-9))

        metrics_text = ServiceClient(url, timeout=30).metrics()
        admitted = metric_total(metrics_text, "repro_jobs_admitted_total")
        completed = metric_total(metrics_text,
                                 "repro_jobs_completed_total")
        failed = metric_total(metrics_text, "repro_jobs_failed_total")
        cancelled = metric_total(metrics_text,
                                 "repro_jobs_cancelled_total")

        server.send_signal(signal.SIGTERM)
        server.wait(timeout=60)
        assert server.returncode == 0, server.returncode
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)

    # -- assertions ----------------------------------------------------------

    assert len(job_ids) == args.clients, \
        f"lost in flight: {args.clients - len(job_ids)}"
    assert len(set(job_ids)) == args.clients, "duplicate job ids"

    folded = JobJournal(os.path.join(state_dir, "journal")).replay()
    lost = [j for j in job_ids if folded.get(j, {}).get("state") != "done"]
    duplicated = [j for j in job_ids
                  if folded.get(j, {}).get("counts", {}).get("done") != 1
                  or folded[j]["counts"].get("submitted") != 1]
    assert not lost, f"{len(lost)} jobs not done in the journal"
    assert not duplicated, f"{len(duplicated)} jobs ran more than once"

    assert admitted == float(args.clients), \
        f"admitted {admitted} != {args.clients}"
    assert admitted == completed + failed + cancelled, \
        (admitted, completed, failed, cancelled)

    assert fairness <= args.fairness_factor, \
        (f"fairness ratio {fairness:.2f} exceeds "
         f"{args.fairness_factor} ({batch_walls})")

    latencies.sort()
    report = {
        "clients": args.clients,
        "tenants": args.tenants,
        "threads": args.threads,
        "pool_size": args.pool_size,
        "wall_s": round(wall, 3),
        "throughput_jobs_s": round(args.clients / wall, 1),
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 4),
            "p95": round(percentile(latencies, 0.95), 4),
            "p99": round(percentile(latencies, 0.99), 4),
            "mean": round(sum(latencies) / len(latencies), 4),
            "max": round(latencies[-1], 4),
        },
        "fairness_ratio": round(fairness, 3),
        "per_tenant_batch_wall_s": {name: round(value, 3)
                                    for name, value
                                    in sorted(batch_walls.items())},
        "dispositions": dispositions,
        "throttled_retries": retry_sleeps[0],
        "lost": 0,
        "duplicated": 0,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lat = report["latency_s"]
    print(f"{args.clients} jobs in {wall:.1f}s "
          f"({report['throughput_jobs_s']} jobs/s); latency p50 "
          f"{lat['p50']*1000:.0f}ms p95 {lat['p95']*1000:.0f}ms "
          f"p99 {lat['p99']*1000:.0f}ms; fairness ratio "
          f"{fairness:.2f} (<= {args.fairness_factor}); "
          f"0 lost, 0 duplicated; report -> {args.out}")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
