"""``serve``: generated modules through a real ``repro serve`` process.

One server subprocess (one front process, ``--pool-size 2``, fresh state
directory) is driven by two closed-loop client threads: each takes the
next module, submits it, follows the event stream to the terminal state
(``wait()`` polls every 100 ms and would quantise the latency) and
fetches the record.  A round is 25 never-seen modules, then -- once all
of those have their verdicts, so that they are real cache hits -- 12 of
them again.  Misses are two-thirds of the checks, so the median check is
a miss.

Out of scope: ``--procs > 1``, the 200/1000-client load script and the
worker fleet; on two shared cores they measure the OS scheduler.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from time import perf_counter
from typing import Deque, Dict, List, Sequence

from repro.checker import explore_parallel, load_checkpoint, save_checkpoint
from repro.parser import load_module
from repro.service import JobJournal, ServiceClient, ShardedResultCache
from repro.service.jobs import CheckRequest, run_check
from repro.systems.queue import QueueChain

from harness import (CHECK_TIMEOUT_S, CheckTimeout, Outcome, Workload, judge,
                     per_item_us, vm_hwm_mib)
from manifest import OUT_DIR, child_env
from modules import (HOLDING, SHAPES, RingModule, probe_module,
                     round_modules)
from spans import Span, durations

CLIENTS = 2
TERMINAL = ("done", "failed", "cancelled")
HIT_PROBES = 108           # + the round's 12 = 120 samples behind the p90
CHECKPOINT_SHAPE = (4, 4)  # the 2,500-state module


def observe(submitted: Dict[str, object], job: Dict[str, object]
            ) -> Dict[str, object]:
    result = job.get("result") or {}
    checks = {check["name"]: check for check in result.get("checks", [])}
    trace = (checks.get("NotAllFull") or {}).get("counterexample")
    started = job.get("started") or job["created"]
    return {
        "state": job["state"],
        "disposition": submitted["disposition"],
        "verdict": result.get("verdict"),
        "states": result.get("states"),
        "edges": result.get("edges"),
        "digest": result.get("graph_digest"),
        "invariants": {name: check["ok"] for name, check in checks.items()},
        "trace_len": len(trace["states"]) if trace else None,
        "queue_wait_s": started - job["created"],
        "run_s": (job.get("finished") or started) - started,
    }


class ServeWorkload(Workload):
    name = "serve"

    def setup(self) -> None:
        self.scratch = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        state_dir = os.path.join(self.scratch, "state")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool-size", "2", "--state-dir", state_dir],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        endpoint = os.path.join(state_dir, "server.json")
        give_up = time.monotonic() + 30.0
        while not os.path.exists(endpoint):
            if self.server.poll() is not None or time.monotonic() > give_up:
                raise RuntimeError("repro serve did not come up")
            time.sleep(0.01)
        with open(endpoint) as handle:
            self.url = json.load(handle)["url"]
        health = ServiceClient(self.url, timeout=30).health()
        if health.get("status") != "ok":
            raise RuntimeError(f"unhealthy server: {health}")

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        shutil.rmtree(getattr(self, "scratch", ""), ignore_errors=True)

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server: the process that does the checking."""
        return vm_hwm_mib(self.server.pid)

    # -- rounds --------------------------------------------------------------

    def round(self, index: int) -> List[Outcome]:
        misses, hits = round_modules(self.seed, index)
        return self._drain(misses, "created") + self._drain(hits, "cached")

    def _drain(self, modules: Sequence[RingModule],
               disposition: str) -> List[Outcome]:
        """Closed loop: each client submits its next module only after
        the previous one has its verdict."""
        todo: Deque[RingModule] = deque(modules)
        outcomes: List[Outcome] = []

        def client_loop() -> None:
            client = ServiceClient(self.url, timeout=CHECK_TIMEOUT_S)
            while True:
                try:
                    module = todo.popleft()   # atomic under the GIL
                except IndexError:
                    return
                outcomes.append(self._check(client, module, disposition))

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def _check(self, client: ServiceClient, module: RingModule,
               disposition: str) -> Outcome:
        check_id = f"{module.shape}.{module.tag}.{disposition}"
        span = self.tracer.span
        start = perf_counter()
        try:
            with span("check", check=check_id):
                with span("service.client.submit"):
                    submitted = client.submit(module.source(),
                                              invariants=module.invariants)
                job = submitted["job"]
                if job["state"] not in TERMINAL:
                    with span("service.client.events"):
                        for _event in client.events(
                                job["id"], timeout=CHECK_TIMEOUT_S):
                            if perf_counter() - start > CHECK_TIMEOUT_S:
                                raise CheckTimeout(
                                    f"no verdict within {CHECK_TIMEOUT_S}s")
                    with span("service.client.job"):
                        job = client.job(job["id"])
        except Exception as exc:
            return Outcome(check_id, perf_counter() - start,
                           [f"{type(exc).__name__}: {exc}"])
        seconds = perf_counter() - start
        return judge(check_id, seconds, self._expect(module, disposition),
                     lambda: observe(submitted, job))

    def _expect(self, module: RingModule, disposition: str
                ) -> Dict[str, object]:
        violated = "NotAllFull" in module.invariants
        return dict(
            self.expected[module.shape],   # states, edges, digest
            state="done", disposition=disposition,
            verdict="violation" if violated else "ok",
            invariants={name: name in HOLDING for name in module.invariants},
            trace_len=module.violation_trace_len if violated else None)

    # -- traced round -> layer metrics ---------------------------------------

    def layers(self, spans: Sequence[Span],
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        misses = [o for o in outcomes if o.check.endswith(".created")]
        median_ms = lambda values: statistics.median(values) * 1000.0
        return {
            "service.client.submit_ms":
                median_ms(durations(spans, "service.client.submit")),
            "service.miss_ms": median_ms([o.seconds for o in misses]),
            "service.queue_wait_ms": median_ms(
                [o.observed.get("queue_wait_s", 0.0) for o in misses]),
            "service.run_ms": median_ms(
                [o.observed.get("run_s", 0.0) for o in misses]),
        }

    # -- direct probes -------------------------------------------------------

    def probes(self, index: int,
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        span = self.tracer.span
        client = ServiceClient(self.url, timeout=CHECK_TIMEOUT_S)
        traced_misses, _hits = round_modules(self.seed, index)
        out: Dict[str, float] = {}
        with span("probe.parser"):
            out["parser.load_module_ms"] = statistics.median(
                _seconds(lambda: load_module(module.source()))
                for module in traced_misses) * 1000.0
        with span("probe.service.hits"):
            hits = [o.seconds for o in outcomes
                    if o.check.endswith(".cached")] + [
                self._probe(client, traced_misses[k % len(traced_misses)],
                            "cached")
                for k in range(HIT_PROBES)]
            out["service.hit_ms"] = statistics.median(hits) * 1000.0
            out["service.hit_p90_ms"] = \
                statistics.quantiles(hits, n=10)[-1] * 1000.0
        with span("probe.service.overhead"):
            out.update(self._overhead_probe(client))
        with span("probe.checker.checkpoint"):
            out.update(self._checkpoint_probe())
        with span("probe.service.journal_cache"):
            out.update(self._journal_cache_probe())
        with span("probe.service.metrics"):
            out["service.metrics.scrape_ms"] = statistics.median(
                _seconds(client.metrics) for _ in range(5)) * 1000.0
        return out

    def _probe(self, client: ServiceClient, module: RingModule,
               disposition: str) -> float:
        """Latency of one more check; a probe that came back wrong must
        not report a number."""
        outcome = self._check(client, module, disposition)
        if not outcome.correct:
            raise RuntimeError(f"probe {outcome.check}: {outcome.problems}")
        return outcome.seconds

    def _overhead_probe(self, client: ServiceClient) -> Dict[str, float]:
        """One never-seen module per shape, nothing else in flight: the
        same request through the service and as a plain in-process
        ``run_check`` with no checkpoint."""
        inprocess, overhead = [], []
        for k, (n, b) in enumerate(SHAPES):
            module = probe_module(n, b, f"probe{self.seed}x{k}")
            through = self._probe(client, module, "created")
            request = CheckRequest(module.source(),
                                   invariants=module.invariants)
            direct = _seconds(lambda: run_check(request))
            inprocess.append(direct)
            overhead.append(through - direct)
        return {"service.inprocess_ms": statistics.median(inprocess) * 1e3,
                "service.overhead_ms": statistics.median(overhead) * 1e3}

    def _checkpoint_probe(self) -> Dict[str, float]:
        path = os.path.join(self.scratch, "probe-checkpoint.json")
        module = probe_module(*CHECKPOINT_SHAPE, "checkpoint")
        request = CheckRequest(module.source(), invariants=module.invariants)
        every_level = statistics.median(
            _seconds(lambda: run_check(request, checkpoint=path))
            - _seconds(lambda: run_check(request)) for _ in range(3))
        save_s = load_s = 0.0
        size = 0
        for spec in (load_module(module.source()).spec("Spec"),
                     QueueChain(3, 1).complete_spec()):
            graph = explore_parallel(spec, workers=1)
            save_s += _seconds(lambda: save_checkpoint(
                path, spec, graph, [], 0, 0, 0.0))
            size += os.path.getsize(path)
            load_s += _seconds(
                lambda: load_checkpoint(path).restore_graph(spec))
        return {"checker.checkpoint.save_ms": save_s * 1e3,
                "checker.checkpoint.load_ms": load_s * 1e3,
                "checker.checkpoint.bytes": size,
                "checker.checkpoint.every_level_ms": every_level * 1e3}

    def _journal_cache_probe(self) -> Dict[str, float]:
        """The public journal and cache classes on a directory of their
        own, configured as the server configures them."""
        journal = JobJournal(os.path.join(self.scratch, "probe-journal"))
        cache = ShardedResultCache(os.path.join(self.scratch, "probe-cache"))
        module = probe_module(*CHECKPOINT_SHAPE, "cache")
        document = run_check(CheckRequest(module.source(),
                                          invariants=module.invariants))
        keys = [hashlib.sha256(str(k).encode()).hexdigest()
                for k in range(200)]
        return {
            "service.journal.append_us": per_item_us(
                keys, lambda key: journal.append("done", key[:12],
                                                 verdict="ok"))[0],
            "service.cache.put_us": per_item_us(
                keys, lambda key: cache.put(key, document))[0],
            # a second cache object: its lookups read the shard files,
            # not the writer's in-memory copies
            "service.cache.get_us": per_item_us(
                keys, ShardedResultCache(cache.directory).get)[0],
        }


def _seconds(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start
