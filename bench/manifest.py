"""The benchmark's contract: workloads, metrics, bounds.

One table, three consumers: ``run.py`` emits exactly these metric names,
``python bench/run.py --write-manifest`` renders them into the repo-root
``BENCHMARK.json``, and ``bench/tests`` checks the two agree.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MANIFEST_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: what the driver passes as ``--seconds``; each workload turns it into
#: a whole number of rounds (see ``rounds_for``)
RUN_SECONDS = 20

#: name -> (timed rounds at RUN_SECONDS, why).  A round is 9.5 s, 9.5 s,
#: 5 s and 10 s on the 2-core reference box, so every timed region is
#: 15-20 s; with the warm-up round a run is 20-30 s, which is what lets
#: the driver's 4 + 22 * 4 runs fit its 3420 s with room for a slow day.
WORKLOADS: Dict[str, Tuple[int, str]] = {
    "explore": (2,
                "explicit BFS over the protocol corpus, full and compact: "
                "kernel.action/state/packed + checker.graph/compact; no "
                "parser, SAT, certificate or service code runs"),
    "certify": (2,
                "Composition Theorem certificates (the paper's result): "
                "refinement + liveness over small product graphs, so BFS "
                "throughput barely shows and ENABLED/witness cost does"),
    "symbolic": (3,
                 "bounded SAT checking, SAT and UNSAT instances: "
                 "engine.cnf + engine.sat do all the work, no BFS runs"),
    "serve": (2,
              "generated modules through a real `repro serve` process, "
              "2 closed-loop clients, two-thirds misses: the only path "
              "through parser, HTTP, journal, scheduler, checkpoint, cache"),
}

#: (name, unit, better, bound) -- every workload reports all five.  The
#: bounds are three times the run-to-run spread measured on the 2-core
#: reference box (README "Noise floor"), capped at the contract's 0.25:
#: a fixed 0.7 s pure-Python loop there already moves 6-10 % between
#: its quartiles, so no timing of this program can promise less.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("checks_per_s", "checks/s", "higher", 0.25),
    ("check_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.08),
]

CERTIFY_SYSTEMS = ("doublequeue-2", "mutex-2-3", "paxos-2-2-2",
                   "paxos-2-2-2-broken", "mutex-2-2-broken")

#: (name, unit, better) -- a traced run reports all of them; a layer the
#: workload never enters reads 0
PER_LAYER: List[Tuple[str, str, str]] = [
    ("parser.load_module_ms", "ms", "lower"),
    ("systems.build_spec_ms", "ms", "lower"),
    ("kernel.action.plan_compile_ms", "ms", "lower"),
    ("kernel.action.successors_us", "us", "lower"),
    ("kernel.state.fingerprint_us", "us", "lower"),
    ("kernel.expr.invariant_eval_us", "us", "lower"),
    ("kernel.packed.codec_build_ms", "ms", "lower"),
    ("kernel.packed.encode_us", "us", "lower"),
    ("kernel.packed.decode_us", "us", "lower"),
    ("checker.full.explore_s", "s", "lower"),
    ("checker.full.states_per_s", "states/s", "higher"),
    ("checker.compact.explore_s", "s", "lower"),
    ("checker.compact.states_per_s", "states/s", "higher"),
    ("checker.compact.trace_regen_ms", "ms", "lower"),
    ("checker.invariants.check_ms", "ms", "lower"),
    ("checker.digest.graph_ms", "ms", "lower"),
    ("checker.states", "count", "lower"),
    ("checker.edges", "count", "lower"),
    ("checker.parallel2.explore_s", "s", "lower"),
    ("checker.full.peak_rss_mib", "MiB", "lower"),
    ("checker.compact.peak_rss_mib", "MiB", "lower"),
    ("checker.checkpoint.save_ms", "ms", "lower"),
    ("checker.checkpoint.load_ms", "ms", "lower"),
    ("checker.checkpoint.bytes", "bytes", "lower"),
    ("checker.checkpoint.every_level_ms", "ms", "lower"),
    ("checker.refinement.check_s", "s", "lower"),
    ("checker.liveness.check_s", "s", "lower"),
] + [(f"core.composition.verify_s.{system}", "s", "lower")
     for system in CERTIFY_SYSTEMS] + [
    ("core.certificate.obligations", "count", "lower"),
    ("engine.cnf.translate_s", "s", "lower"),
    ("engine.sat.solve_s", "s", "lower"),
    ("engine.cnf.variables", "count", "lower"),
    ("engine.cnf.clauses", "count", "lower"),
    ("engine.sat.conflicts", "count", "lower"),
    ("engine.sat.propagations", "count", "lower"),
    ("engine.sat.propagations_per_s", "1/s", "higher"),
    ("service.client.submit_ms", "ms", "lower"),
    ("service.miss_ms", "ms", "lower"),
    ("service.hit_ms", "ms", "lower"),
    ("service.hit_p90_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.inprocess_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.journal.append_us", "us", "lower"),
    ("service.cache.put_us", "us", "lower"),
    ("service.cache.get_us", "us", "lower"),
    ("service.metrics.scrape_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
]

#: per-layer metrics that are counts made by the program: they must
#: repeat exactly between two runs of the same code
EXACT_COUNTS = ("checker.states", "checker.edges", "checker.checkpoint.bytes",
                "core.certificate.obligations", "engine.cnf.variables",
                "engine.cnf.clauses", "engine.sat.conflicts",
                "engine.sat.propagations")

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def child_env() -> Dict[str, str]:
    """The environment of a child process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, BENCH_DIR] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def rounds_for(workload: str, seconds: float) -> int:
    """Timed rounds for a ``--seconds`` budget: a whole number, fixed by
    the arguments alone so two runs always do the same work."""
    return max(1, round(WORKLOADS[workload][0] * seconds / RUN_SECONDS))


def manifest() -> Dict[str, object]:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_rounds, why) in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def write_manifest(path: str = MANIFEST_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(manifest(), handle, indent=2)
        handle.write("\n")
    return path
