"""The shared system-under-test table for the durability test layer.

One row per bundled example system (queue, arbiter, handshake, circuit),
each paired with a property that the system **violates**, so every case
produces a deterministic counterexample trace:

* the golden-trace suite freezes the rendered traces byte-for-byte,
* the checkpoint suite replays kill-and-resume runs on every system,
* the fault-injection suite re-checks graph identity under crashes.

Keeping the table in one module means a new bundled system gets golden,
checkpoint, and fault coverage by adding one row here.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import pytest

from repro.checker import (
    CompactGraph,
    ExploreStats,
    StateGraph,
    check_invariant,
    check_invariant_compact,
)
from repro.checker.liveness import check_temporal_implication, premises_of_spec
from repro.checker.results import CheckResult
from repro.kernel.expr import And, Cmp, Exists, Len, Or, Var
from repro.spec import Spec
from repro.systems.arbiter import composed_system, starvation_property
from repro.systems.circuit import composed_processes, eventually_one
from repro.systems.handshake import (
    ack,
    channel_universe,
    channel_vars,
    cinit,
    ready,
    send,
)
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import DEFAULT_MSG, complete_queue


def handshake_system() -> Spec:
    """A closed Figure-2 system: one channel, a sender that transmits
    arbitrary messages and a receiver that acknowledges them."""
    chan = "c"
    nxt = Or(Exists("v", DEFAULT_MSG, send(Var("v"), chan)), ack(chan))
    return Spec(
        "handshake(c)",
        And(cinit(chan)),
        nxt,
        channel_vars(chan),
        channel_universe(chan, DEFAULT_MSG),
    )


class SystemCase:
    """A bundled system plus a property it violates."""

    def __init__(self, case_id: str, make_spec: Callable[[], Spec],
                 check: Callable[[Spec, StateGraph, Optional[ExploreStats]],
                                 CheckResult],
                 kind: str):
        self.id = case_id
        self.make_spec = make_spec
        self._check = check
        self.kind = kind  # "finite" or "lasso" counterexample

    def check(self, spec: Spec, graph: StateGraph,
              stats: Optional[ExploreStats] = None) -> CheckResult:
        """Run the violated check against a pre-explored graph."""
        return self._check(spec, graph, stats)

    def __repr__(self) -> str:
        return f"SystemCase({self.id!r}, kind={self.kind!r})"


def _check_invariant(graph, expr, name, stats):
    """Invariant check dispatched on the graph flavour, so the same case
    table drives the full and compact engines."""
    run = check_invariant_compact if isinstance(graph, CompactGraph) \
        else check_invariant
    return run(graph, expr, name=name, run_stats=stats)


def _queue_overfull(spec, graph, stats):
    # the 2-place queue does reach length 2: capacity <= 1 is violated
    return _check_invariant(graph, Cmp("<=", Len(Var("q")), 1),
                            "queue-capacity-1", stats)


def _arbiter_starvation(spec, graph, stats):
    # under weak fairness only, client 1 can be starved forever (the
    # paper's reason the arbiter needs SF): the property fails by lasso
    return check_temporal_implication(
        graph, starvation_property(1), premises=premises_of_spec(spec),
        name="arbiter-no-starvation", run_stats=stats)


def _handshake_never_pending(spec, graph, stats):
    # "the channel is always ready" is false the moment anything is sent
    return _check_invariant(graph, ready("c"), "handshake-always-ready",
                            stats)


def _circuit_eventually_one(spec, graph, stats):
    # both processes keep their wires at 0 forever: ◇(c = 1) fails
    return check_temporal_implication(
        graph, eventually_one("c"), premises=premises_of_spec(spec),
        name="circuit-eventually-one", run_stats=stats)


def _mutex_broken_exclusion(spec, graph, stats):
    # the broken variant drops the timestamp-priority guard, so both
    # processes sit in their critical sections by state ~12
    return _check_invariant(graph, LamportMutex(2, 2).mutual_exclusion(),
                            "mutex-mutual-exclusion", stats)


def _paxos_broken_agreement(spec, graph, stats):
    # without the ballot discipline, two quorums choose different values
    return _check_invariant(graph, Paxos(2, 2, 2).agreement(),
                            "paxos-agreement", stats)


CASES: List[SystemCase] = [
    SystemCase("queue", lambda: complete_queue(2), _queue_overfull, "finite"),
    SystemCase("arbiter", lambda: composed_system(strong=False),
               _arbiter_starvation, "lasso"),
    SystemCase("handshake", handshake_system, _handshake_never_pending,
               "finite"),
    SystemCase("circuit", composed_processes, _circuit_eventually_one,
               "lasso"),
    SystemCase("mutex",
               lambda: LamportMutex(2, 2, broken=True).complete_spec(),
               _mutex_broken_exclusion, "finite"),
    SystemCase("paxos",
               lambda: Paxos(2, 2, 2, broken=True).complete_spec(),
               _paxos_broken_agreement, "finite"),
]

CASE_PARAMS = [pytest.param(case, id=case.id) for case in CASES]
