#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads.

    python bench/run.py --workload explore --seed 1            # one workload
    python bench/run.py --workload serve --seed 1 --trace      # layer trace
    python bench/run.py --all                                  # everything
    python bench/run.py --all --sets 2                         # agreement check
    python bench/run.py --write-manifest                       # BENCHMARK.json

``--workload`` runs in this process, which must be fresh: set-up, one
untimed warm-up round, then R timed rounds with tracing off (R follows
from ``--seconds``).  With ``--trace`` the last round is traced instead,
the layer probes follow it, and ``bench/out/trace-<workload>.ndjson`` is
written.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is 1 when a check failed.

``--all`` runs each workload untraced and traced in child processes;
with ``--sets 2`` it does so twice and reports, for every workload and
end-to-end metric, both values, their relative difference and the bound.
See ``bench/README.md``.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()   # before the heavy imports: they are set-up

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import manifest  # noqa: E402
from spans import Tracer, overhead_share, write_ndjson  # noqa: E402

if not os.path.isdir(os.path.join(manifest.SRC_DIR, "repro")):
    sys.exit(f"bench: {manifest.SRC_DIR}/repro is missing; run from a "
             f"checkout of the repository")
sys.path.insert(0, manifest.SRC_DIR)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_path: Optional[str]) -> int:
    os.makedirs(manifest.OUT_DIR, exist_ok=True)
    # whatever the program or the interpreter drops in a temp directory
    # stays inside the checkout
    os.environ["TMPDIR"] = manifest.OUT_DIR
    tracer = Tracer()
    # imported here: importing a workload imports the program, and that
    # belongs to this workload's set-up
    module = importlib.import_module(f"wl_{name}")
    workload = getattr(module, f"{name.capitalize()}Workload")(seed, tracer)
    rounds = manifest.rounds_for(name, seconds)
    outcomes, walls, layer = [], [], {}
    try:
        workload.setup()
        workload.round(-1)
        setup_s = perf_counter() - PROCESS_START
        # a traced run spends its last round traced, so it does the same
        # work as an untraced one
        for index in range(max(1, rounds - 1) if trace else rounds):
            start = perf_counter()
            outcomes += workload.round(index)
            walls.append(perf_counter() - start)
        if trace:
            tracer.enabled = True
            start = perf_counter()
            traced = workload.round(rounds)
            traced_wall = perf_counter() - start
            round_spans = list(tracer.spans)
            outcomes += traced
            layer = dict.fromkeys(manifest.PER_LAYER_UNITS, 0.0)
            layer.update(workload.setup_layers)
            layer.update(workload.layers(round_spans, traced))
            layer.update(workload.probes(rounds, traced))
            layer["bench.trace_overhead_share"] = \
                overhead_share(traced_wall, walls)
            tracer.enabled = False
        peak_rss_mib = workload.peak_rss_mib()
    finally:
        workload.close()

    failed = [outcome for outcome in outcomes if not outcome.correct]
    if trace:
        write_ndjson(tracer.spans, os.path.join(
            manifest.OUT_DIR, f"trace-{name}.ndjson"))
        metrics, units = layer, manifest.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "round_s": statistics.median(walls),
            "checks_per_s": (len(outcomes) - len(failed)) / sum(walls),
            "check_p50_ms": statistics.median(
                outcome.seconds for outcome in outcomes) * 1000.0,
            "peak_rss_mib": peak_rss_mib,
        }
        units = manifest.END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }

    print(f"workload {name}  seed {seed}  rounds {len(walls)}"
          f"{' + 1 traced' if trace else ''}  "
          f"round walls {[round(wall, 3) for wall in walls]}")
    for key, unit in units.items():
        print(f"  {key:<44} {metrics[key]:>16.4f} {unit}")
    for outcome in failed:
        print(f"  FAILED {outcome.check}: {'; '.join(outcome.problems)}")
    print(f"  checks attempted {result['attempted']}, "
          f"failed {result['failed']}")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(dict(result, workload=name, seed=seed,
                           round_walls_s=walls,
                           checks=[vars(outcome) for outcome in outcomes]),
                      handle, indent=2, default=str)
    print(json.dumps(result))
    return 1 if failed else 0


# -- every workload, in child processes -------------------------------------


def run_child(name: str, seed: int, seconds: float,
              trace: int) -> Dict[str, object]:
    """One workload in a fresh process, so peak RSS and warm caches
    never leak between workloads; returns its result line."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = child.stdout.strip().splitlines()
    if not lines or child.returncode not in (0, 1):
        sys.exit(f"bench: {name} (trace {trace}) died with code "
                 f"{child.returncode}:\n{child.stderr}")
    print("\n".join(lines[:-1]))
    sys.stderr.write(child.stderr)
    return json.loads(lines[-1])


def run_all(sets: int, seed: int, seconds: float) -> int:
    """Set *k* runs every workload untraced and traced with seed
    ``seed + k``; two sets are then compared metric by metric."""
    results: List[Dict[str, Dict[str, object]]] = []
    failed = 0
    for index in range(sets):
        print(f"=== set {index + 1} of {sets} (seed {seed + index}) ===")
        per_workload = {}
        for name in manifest.WORKLOADS:
            untraced = run_child(name, seed + index, seconds, 0)
            traced = run_child(name, seed + index, seconds, 1)
            failed += untraced["failed"] + traced["failed"]
            per_workload[name] = {"end_to_end": untraced["metrics"],
                                  "per_layer": traced["metrics"]}
        results.append(per_workload)
    os.makedirs(manifest.OUT_DIR, exist_ok=True)
    with open(os.path.join(manifest.OUT_DIR, "results.json"), "w") as handle:
        json.dump(results, handle, indent=2)
    unresolved = agreement(results[0], results[1]) if sets >= 2 else 0
    print(f"checks failed: {failed}; unresolved pairings: {unresolved}")
    return 1 if failed or unresolved else 0


def agreement(first: Dict[str, Dict[str, object]],
              second: Dict[str, Dict[str, object]]) -> int:
    """Two sets of runs of the same code: every end-to-end metric must
    agree within its bound on every workload, every exact count must
    repeat.  Returns the number of pairings that do not."""
    unresolved = 0
    print("=== agreement between set 1 and set 2 ===")
    print(f"{'workload':<10}{'metric':<16}{'set 1':>14}{'set 2':>14}"
          f"{'diff':>9}{'bound':>8}")
    for name in manifest.WORKLOADS:
        for metric, _unit, _better, bound in manifest.END_TO_END:
            a = first[name]["end_to_end"][metric]["value"]
            b = second[name]["end_to_end"][metric]["value"]
            diff = abs(b - a) / a
            verdict = "" if diff <= bound else "  unresolved"
            unresolved += diff > bound
            print(f"{name:<10}{metric:<16}{a:>14.4f}{b:>14.4f}"
                  f"{diff:>8.2%}{bound:>8.0%}{verdict}")
        for metric in manifest.EXACT_COUNTS:
            a = first[name]["per_layer"][metric]["value"]
            b = second[name]["per_layer"][metric]["value"]
            if a != b:
                unresolved += 1
                print(f"{name:<10}{metric}: {a} != {b}  unresolved "
                      f"(an exact count must repeat)")
    return unresolved


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest.RUN_SECONDS),
                        help="timed region; becomes a whole number of "
                             "rounds (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="trace the last round and run the layer probes")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the result, with every check, here")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --all: repeat, and compare the first two")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repo root")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(manifest.write_manifest())
        return 0
    if args.all:
        return run_all(args.sets, args.seed, args.seconds)
    if not args.workload:
        parser.error("one of --workload, --all, --write-manifest is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.out)


if __name__ == "__main__":
    code = main()
    # leave without tearing the interpreter down: freeing certify's heap
    # object by object takes seconds that measure nothing
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
