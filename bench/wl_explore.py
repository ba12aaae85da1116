"""``explore``: explicit BFS over the protocol corpus, full and compact.

Nine checks per round through ``ExplicitEngine.check_invariant``: three
on the full dict-backed graph, six on the compact fingerprint-only
engine (two of them to a 20k-state budget they are known to exceed).
``workers=2`` runs are not in the timed list -- back-to-back runs of one
of them differed by 20 % on the 2-core box -- and appear only as the
``checker.parallel2.explore_s`` probe.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Sequence

import repro.engine.explicit as explicit_module
from repro.checker import CompactGraph, StateSpaceExplosion, explore_compact
from repro.engine import ExplicitEngine
from repro.kernel import CompiledAction
from repro.kernel.expr import And
from repro.kernel.packed import PackedCodec
from repro.service.jobs import graph_digest
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import QueueChain

from harness import (Check, Outcome, SerialWorkload, per_item_us,
                     vm_hwm_mib)
from manifest import BENCH_DIR, child_env
from spans import Span, layer_self_times

BUDGET = 20_000
PROBE_SAMPLES = 1_000   # per probed spec


def corpus() -> Dict[str, tuple]:
    """Corpus name -> (spec, invariant), every spec freshly built."""
    chain = QueueChain(3, 1)
    paxos_small, paxos_big = Paxos(3, 2, 1), Paxos(3, 3, 1)
    mutex_broken = LamportMutex(2, 3, broken=True)
    mutex_small, mutex_big = LamportMutex(3, 2), LamportMutex(3, 4)
    return {
        "queuechain-3-1": (chain.complete_spec(), And(
            *[queue.capacity_invariant() for queue in chain.queues])),
        "paxos-3-2-1": (paxos_small.complete_spec(),
                        paxos_small.agreement()),
        "mutex-2-3-broken": (mutex_broken.complete_spec(),
                             mutex_broken.mutual_exclusion()),
        "mutex-3-2": (mutex_small.complete_spec(),
                      mutex_small.mutual_exclusion()),
        "paxos-3-3-1": (paxos_big.complete_spec(), paxos_big.agreement()),
        "mutex-3-4": (mutex_big.complete_spec(),
                      mutex_big.mutual_exclusion()),
    }


#: check id -> (corpus name, engine mode, state budget or None)
CHECKS = {
    "queuechain-3-1.full": ("queuechain-3-1", "serial", None),
    "paxos-3-2-1.full": ("paxos-3-2-1", "serial", None),
    "mutex-2-3-broken.full": ("mutex-2-3-broken", "serial", None),
    "queuechain-3-1.compact": ("queuechain-3-1", "compact", None),
    "paxos-3-2-1.compact": ("paxos-3-2-1", "compact", None),
    "mutex-2-3-broken.compact": ("mutex-2-3-broken", "compact", None),
    "mutex-3-2.compact": ("mutex-3-2", "compact", None),
    "paxos-3-3-1.compact-20k": ("paxos-3-3-1", "compact", BUDGET),
    "mutex-3-4.compact-20k": ("mutex-3-4", "compact", BUDGET),
}
FULL_LIST = ("queuechain-3-1", "paxos-3-2-1", "mutex-2-3-broken")


def observe(result) -> Dict[str, object]:
    """``result`` is ``"budget"`` or ``(EngineResult, digest)``."""
    if result == "budget":
        return {"verdict": "budget"}
    engine_result, digest = result
    trace = engine_result.counterexample
    return {
        "verdict": engine_result.verdict,
        "states": engine_result.stats.states,
        "edges": engine_result.stats.edges,
        "digest": digest,
        "trace_len": (len(list(trace.states()))
                      if trace is not None else None),
    }


class ExploreWorkload(SerialWorkload):
    name = "explore"

    def build(self) -> None:
        self.corpus = corpus()
        self._graph = None

    def wrap_seams(self) -> None:
        wrap = self.tracer.wrap
        # the engine hands back no graph; remember the one it explored
        # so the check can seal it with a digest
        wrap(explicit_module, "explore_compact", "checker.compact.explore",
             on_result=self._remember)
        wrap(explicit_module, "explore_parallel", "checker.full.explore",
             on_result=self._remember)
        wrap(explicit_module, "check_invariant", "checker.invariants.check")
        wrap(explicit_module, "check_invariant_compact",
             "checker.invariants.check")
        wrap(CompactGraph, "trace_to", "checker.compact.trace_regen")

    def _remember(self, graph) -> None:
        self._graph = graph

    def checks(self) -> List[Check]:
        return [Check(check_id, self._runner(*recipe), observe)
                for check_id, recipe in CHECKS.items()]

    def _runner(self, name: str, mode: str, budget):
        spec, invariant = self.corpus[name]
        engine = (ExplicitEngine(mode) if budget is None
                  else ExplicitEngine(mode, max_states=budget))

        def run():
            self._graph = None
            try:
                result = engine.check_invariant(spec, invariant)
            except StateSpaceExplosion:
                return "budget"
            graph, self._graph = self._graph, None
            with self.tracer.span("checker.digest.graph"):
                digest = graph_digest(graph) if graph is not None else None
            return result, digest

        return run

    # -- traced round -> layer metrics ---------------------------------------

    def layers(self, spans: Sequence[Span],
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        own = layer_self_times(spans)
        explored = {"serial": 0, "compact": 0}
        states = edges = 0
        for outcome in outcomes:
            _name, mode, budget = CHECKS[outcome.check]
            seen = outcome.observed.get("states")
            explored[mode] += seen if seen is not None else (budget or 0)
            states += seen or 0
            edges += outcome.observed.get("edges") or 0
        full_s = own["checker.full.explore"]
        compact_s = own["checker.compact.explore"]
        return {
            "checker.full.explore_s": full_s,
            "checker.full.states_per_s":
                explored["serial"] / full_s if full_s else 0.0,
            "checker.compact.explore_s": compact_s,
            "checker.compact.states_per_s":
                explored["compact"] / compact_s if compact_s else 0.0,
            "checker.compact.trace_regen_ms":
                own["checker.compact.trace_regen"] * 1000.0,
            "checker.invariants.check_ms":
                own["checker.invariants.check"] * 1000.0,
            "checker.digest.graph_ms":
                own["checker.digest.graph"] * 1000.0,
            "checker.states": states,
            "checker.edges": edges,
        }

    # -- direct probes -------------------------------------------------------

    def probes(self, index: int,
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        span = self.tracer.span
        out: Dict[str, float] = {}
        with span("probe.kernel"):
            out.update(self._kernel_probes())
        with span("probe.checker.parallel2"):
            spec, _invariant = self.corpus["paxos-3-3-1"]
            start = perf_counter()
            try:
                explore_compact(spec, max_states=10_000, workers=2)
            except StateSpaceExplosion:
                pass
            out["checker.parallel2.explore_s"] = perf_counter() - start
        for mode in ("full", "compact"):
            with span(f"probe.checker.{mode}.peak_rss"):
                out[f"checker.{mode}.peak_rss_mib"] = _rss_child(mode)
        return out

    def _kernel_probes(self) -> Dict[str, float]:
        """Per-state costs over seed-sampled reachable states of
        Paxos(3,2,1) and QueueChain(3,1), averaged over both."""
        rng = random.Random(f"explore/probes/{self.seed}")
        fresh = corpus()   # uncompiled actions: the plan cache is cold
        totals = {key: 0.0 for key in (
            "kernel.action.plan_compile_ms", "kernel.packed.codec_build_ms",
            "kernel.packed.decode_us", "kernel.packed.encode_us",
            "kernel.state.fingerprint_us", "kernel.action.successors_us",
            "kernel.expr.invariant_eval_us")}
        names = ("paxos-3-2-1", "queuechain-3-1")
        for name in names:
            spec, invariant = fresh[name]
            start = perf_counter()
            plan = CompiledAction(spec.next_action).plan(spec.universe)
            totals["kernel.action.plan_compile_ms"] += \
                (perf_counter() - start) * 1000.0
            start = perf_counter()
            codec = PackedCodec(spec.universe)
            totals["kernel.packed.codec_build_ms"] += \
                (perf_counter() - start) * 1000.0
            reachable = explore_compact(spec).packed
            sample = rng.sample(range(len(reachable)), PROBE_SAMPLES)
            packed = [reachable[index] for index in sample]
            # decoded states carry no cached fingerprint yet
            us, states = per_item_us(packed, codec.decode)
            totals["kernel.packed.decode_us"] += us
            totals["kernel.state.fingerprint_us"] += per_item_us(
                states, lambda state: state.fingerprint())[0]
            totals["kernel.packed.encode_us"] += \
                per_item_us(states, codec.encode)[0]
            totals["kernel.action.successors_us"] += per_item_us(
                states, lambda state: list(plan.successors(state)))[0]
            totals["kernel.expr.invariant_eval_us"] += \
                per_item_us(states, invariant.eval_state)[0]
        for key in totals:
            if key.endswith("_us"):
                totals[key] /= len(names)
        return totals


def _rss_child(mode: str) -> float:
    """Peak RSS of a child that explores the full-list specs in *mode*
    and nothing else, so compact's retention saving is visible."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "wl_explore.py"), mode],
        check=True, capture_output=True, text=True, timeout=120,
        env=child_env())
    return float(json.loads(done.stdout.strip().splitlines()[-1]))


if __name__ == "__main__":
    engine = ExplicitEngine({"full": "serial", "compact": "compact"}[
        sys.argv[1]])
    specs = corpus()
    for corpus_name in FULL_LIST:
        engine.check_invariant(*specs[corpus_name])
    print(json.dumps(vm_hwm_mib("self")))
