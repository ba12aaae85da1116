"""One successor-plan tree, walked by both expanders.

``SuccessorPlan`` grows its sub-plans as states reach them, and
``PackedPlan`` walks that same tree over packed ints.  The two must emit
the same successor sequence state for state, assemble the same number of
candidates, and leave every certificate unchanged whichever engine
explores its safety product.
"""

import pytest

import repro.core.composition as composition_module
import repro.kernel.action as action_module
from repro.checker import StateSpaceExplosion, explore, explore_compact
from repro.kernel import compile_action
from repro.kernel.action import SuccessorPlan
from repro.kernel.packed import PackedPlan
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import DoubleQueue, QueueChain

CERTIFY = {
    "doublequeue-2": lambda: DoubleQueue(2),
    "mutex-2-3": lambda: LamportMutex(2, 3),
    "paxos-2-2-2": lambda: Paxos(2, 2, 2),
    "paxos-2-2-2-broken": lambda: Paxos(2, 2, 2, broken=True),
    "mutex-2-2-broken": lambda: LamportMutex(2, 2, broken=True),
}

#: the benchmark's closed protocol corpus, driven over a reachable prefix
CORPUS = {
    "queuechain-3-1": lambda: QueueChain(3, 1),
    "paxos-3-2-1": lambda: Paxos(3, 2, 1),
    "mutex-2-3-broken": lambda: LamportMutex(2, 3, broken=True),
    "mutex-3-2": lambda: LamportMutex(3, 2),
    "paxos-3-3-1": lambda: Paxos(3, 3, 1),
    "mutex-3-4": lambda: LamportMutex(3, 4),
}
PREFIX = 300


def safety_product(system):
    theorem = system.composition_theorem()
    closures, _setup = theorem._setup_closures()
    return theorem._safety_product(closures)


def reachable(spec, budget=None):
    """Reachable states of *spec* in node order (a BFS prefix under a
    budget)."""
    if budget is None:
        return list(explore_compact(spec).states)
    try:
        graph = explore_compact(spec, max_states=budget)
    except StateSpaceExplosion as exc:
        graph = exc.graph
    return list(graph.states)


def drive_both(spec, states):
    """Fresh plans of each expander driven over *states*; returns them
    after asserting equal successor sequences on every state."""
    packed = PackedPlan(spec)
    plan = compile_action(spec.next_action).plan(spec.universe)
    encode = packed.codec.encode
    for state in states:
        assert packed.successors(encode(state)) == \
            [encode(t) for t in plan.successors(state)]
    return packed, plan


@pytest.mark.parametrize("name", sorted(CERTIFY))
def test_certificate_product_sequences_and_candidates(name):
    spec = safety_product(CERTIFY[name]())
    states = reachable(spec)
    if name.startswith("paxos"):
        states = states[::3]
    packed, plan = drive_both(spec, states)
    assert packed.candidates == plan.candidates > 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_sequences_and_candidates(name):
    spec = CORPUS[name]().complete_spec()
    packed, plan = drive_both(spec, reachable(spec, PREFIX))
    assert packed.candidates == plan.candidates > 0


def test_mutex_2_2_candidates_per_expanded_state():
    """Pinned: the flat packed product built 56,160 candidates per
    state of this product; the plan tree builds 1,044 over its 135."""
    graph = explore_compact(safety_product(LamportMutex(2, 2)))
    assert graph.state_count == 135
    assert graph.plan.candidates == 1044


def test_paxos_plan_grows_only_where_states_reach(monkeypatch):
    spec = safety_product(Paxos(2, 2, 2))
    states = reachable(spec)
    plan = compile_action(spec.next_action).plan(spec.universe)
    assert plan.sub_plans == 0  # a fresh plan builds no sub-plan

    reached = set()
    determine = SuccessorPlan._determine

    def recording(node, env0, pre, handed_down):
        reached.add(id(node))
        return determine(node, env0, pre, handed_down)

    monkeypatch.setattr(SuccessorPlan, "_determine", staticmethod(recording))
    for state in states:
        list(plan.successors(state))
    roots = {id(node) for node in plan.branch_plans}
    assert plan.sub_plans > 0
    assert plan.sub_plans == len(reached - roots)


def test_capped_tree_falls_back_to_the_same_sequences(monkeypatch):
    """Past ``_EXPAND_TOTAL`` sub-plans reached, a node enumerates its
    free domains instead: more candidates, the same successors in the
    same order, on both expanders."""
    spec = safety_product(LamportMutex(2, 2, broken=True))
    states = reachable(spec)
    uncapped = compile_action(spec.next_action).plan(spec.universe)
    expected = [list(uncapped.successors(state)) for state in states]
    monkeypatch.setattr(action_module, "_EXPAND_TOTAL", 120)
    packed = PackedPlan(spec)
    plan = compile_action(spec.next_action).plan(spec.universe)
    encode = packed.codec.encode
    for state, successors in zip(states, expected):
        assert list(plan.successors(state)) == successors
        assert packed.successors(encode(state)) == \
            [encode(t) for t in successors]
    assert plan.sub_plans <= 120 < uncapped.sub_plans
    assert packed.candidates == plan.candidates > uncapped.candidates


def test_certificates_render_identically_on_either_engine(monkeypatch):
    for make in CERTIFY.values():
        compact = make().composition_theorem().verify().render()
        monkeypatch.setattr(composition_module, "explore_compact", explore)
        full = make().composition_theorem().verify().render()
        monkeypatch.undo()
        assert compact == full
