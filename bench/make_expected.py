#!/usr/bin/env python3
"""Recompute the *measured* half of ``expected.json``.

The verdicts in the table are the analytically known ones and are
written by hand (``VERDICTS`` below): correct protocols hold, ``broken``
variants fail, corpus instances known to exceed the budget answer
``budget``, a bounded search below the violation level is ``unknown``
and never ``holds``.  What this script adds are the facts nobody can
derive on paper -- state and edge counts, graph digests, trace lengths --
and it only accepts them when two independent routes agree: the full and
the compact engine for ``explore`` and ``serve`` shapes, the closed-form
ring formulas for ``serve``, the golden BFS trace for the symbolic
mutex violation.  It is run by hand when the corpus changes, never by
the benchmark: a run is judged against the checked-in file.

    python bench/make_expected.py            # rewrite bench/expected.json
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from repro.checker import (  # noqa: E402
    check_invariant,
    check_invariant_compact,
    explore,
    explore_compact,
)
from repro.parser import load_module  # noqa: E402
from repro.service.jobs import graph_digest  # noqa: E402

import wl_explore  # noqa: E402
from harness import EXPECTED_PATH  # noqa: E402
from modules import SHAPES, probe_module  # noqa: E402

VERDICTS = {
    "explore": {
        "queuechain-3-1.full": "holds",
        "paxos-3-2-1.full": "holds",
        "mutex-2-3-broken.full": "violation",
        "queuechain-3-1.compact": "holds",
        "paxos-3-2-1.compact": "holds",
        "mutex-2-3-broken.compact": "violation",
        "mutex-3-2.compact": "holds",
        "paxos-3-3-1.compact-20k": "budget",
        "mutex-3-4.compact-20k": "budget",
    },
    # ok, obligations (2 reductions-only/2a/2b + one hypothesis 1 per
    # device), failed hypotheses
    "certify": {
        "doublequeue-2": (True, 5, []),
        "mutex-2-3": (True, 5, []),
        "paxos-2-2-2": (True, 7, []),
        "paxos-2-2-2-broken": (False, 7, ["2a", "2b"]),
        "mutex-2-2-broken": (False, 5, ["2a", "2b"]),
    },
    # verdict, depth of the answer, trace length
    "symbolic": {
        "wide8.depth8": ("violation", 7, 8),
        "wide8.depth10": ("violation", 7, 8),
        "paxos-2-2-2.depth6": ("unknown", 6, None),
        "mutex-2-2.depth8": ("unknown", 8, None),
        # the golden BFS trace (tests/goldens/mutex_trace.txt) has 13
        # states, so depth 12 is exactly the violation level
        "mutex-2-2-broken.depth12": ("violation", 12, 13),
    },
}


def measured(spec, invariant=None):
    """Counts, digest and (with an invariant) trace length -- accepted
    only if the full and the compact engine agree on all of them."""
    full, compact = explore(spec), explore_compact(spec)
    facts = {"states": full.state_count, "edges": full.edge_count,
             "digest": graph_digest(full)}
    other = {"states": compact.state_count, "edges": compact.edge_count,
             "digest": graph_digest(compact)}
    if invariant is not None:
        for graph, check, into in ((full, check_invariant, facts),
                                   (compact, check_invariant_compact, other)):
            trace = check(graph, invariant).counterexample
            into["trace_len"] = (len(list(trace.states()))
                                 if trace is not None else None)
    if facts != other:
        raise SystemExit(f"{spec.name}: engines disagree: {facts} / {other}")
    return facts


def main() -> None:
    table = {"explore": {}, "certify": {}, "symbolic": {}, "serve": {}}
    specs = wl_explore.corpus()
    for check_id, (name, _mode, budget) in wl_explore.CHECKS.items():
        entry = {"verdict": VERDICTS["explore"][check_id]}
        if budget is None:
            entry.update(measured(*specs[name]))
            assert (entry["trace_len"] is not None) == \
                (entry["verdict"] == "violation"), check_id
        table["explore"][check_id] = entry
    for name, (ok, obligations, failed) in VERDICTS["certify"].items():
        table["certify"][name] = {"ok": ok, "obligations": obligations,
                                  "failed": failed}
    for name, (verdict, depth, trace_len) in VERDICTS["symbolic"].items():
        entry = {"verdict": verdict, "depth": depth, "trace_len": trace_len}
        if trace_len is not None:
            entry["replays"] = True
        table["symbolic"][name] = entry
    for n, b in SHAPES:
        module = probe_module(n, b, "expected")
        facts = measured(load_module(module.source()).spec("Spec"))
        if (facts["states"], facts["edges"]) != (module.states, module.edges):
            raise SystemExit(f"{module.shape}: closed form disagrees")
        table["serve"][module.shape] = facts
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    print(EXPECTED_PATH)


if __name__ == "__main__":
    main()
