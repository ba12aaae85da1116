"""One successor-plan tree, one walker, checked against brute force.

``SuccessorPlan`` grows its sub-plans as states reach them, and its
``successors`` is ``PackedPlan``'s walk of that tree over packed ints.
With one walker there is nothing left to compare it with but the
relation itself: every successor set must equal ``{t | N(s, t)}``,
found by evaluating the next-state action on every pair of states of
a small universe.  Successor *order* is pinned by the graph digests and
goldens; the candidate counts and certificates are pinned here.
"""

import random

import pytest

import repro.core.composition as composition_module
import repro.kernel.action as action_module
from repro.checker import StateSpaceExplosion, explore, explore_compact
from repro.kernel import compile_action
from repro.kernel.expr import Env, EvalError
from repro.kernel.packed import PackedPlan
from repro.systems.arbiter import composed_system
from repro.systems.circuit import composed_processes
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import DoubleQueue, QueueChain, complete_queue

from .test_property_random_specs import random_action, random_universe

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

#: specs whose universe has at most a few thousand states: each source
#: is paired with every state of the universe -- every state is a source
#: up to ALL_PAIRS states, else SOURCES evenly spaced reachable ones
SMALL = {
    "circuit": composed_processes,
    "arbiter": composed_system,
    "paxos-1-1-1": lambda: Paxos(1, 1, 1).complete_spec(),
    "queue-1": lambda: complete_queue(1),
    "queue-2": lambda: complete_queue(2),
    "queuechain-2-1": lambda: QueueChain(2, 1).complete_spec(),
    "doublequeue-1-product": lambda: safety_product(DoubleQueue(1)),
}
ALL_PAIRS = 256
SOURCES = 16


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


def relation(action, universe, frame=None):
    """``s -> {t | action(s, t)}`` by brute force over *universe*: a step
    whose evaluation raises is no step, and outside *frame* nothing may
    change."""
    targets = list(universe.states())
    fixed = [] if frame is None else \
        [name for name in universe.variables if name not in frame]

    def successors(state):
        found = set()
        for target in targets:
            if any(target[name] != state[name] for name in fixed):
                continue
            try:
                if action.holds(Env(state, target)):
                    found.add(target)
            except EvalError:
                pass
        return found

    return successors


def assert_walker_is_the_relation(plan, action, sources, frame=None):
    brute = relation(action, plan.universe, frame)
    for state in sources:
        got = plan.successors(state)
        assert len(got) == len(set(got)), f"duplicates from {state!r}"
        assert set(got) == brute(state), f"disagree on {state!r}"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_successors_are_the_next_state_relation(name):
    spec = SMALL[name]()
    universe = spec.universe
    if universe.state_count() <= ALL_PAIRS:
        sources = list(universe.states())
    else:
        sources = reachable(spec)
        sources = sources[::-(-len(sources) // SOURCES)]
    plan = compile_action(spec.next_action).plan(universe)
    assert_walker_is_the_relation(plan, spec.next_action, sources)
    assert plan.candidates == plan.packed.candidates > 0


@pytest.mark.parametrize("seed", range(20))
def test_framed_successors_are_the_relation_inside_the_frame(seed):
    rng = random.Random(f"plan-tree/{seed}")
    universe = random_universe(rng)
    action = random_action(rng, universe)
    frame = rng.sample(universe.variables, rng.randint(1, 2))
    plan = compile_action(action).plan(universe, frame)
    assert_walker_is_the_relation(plan, action, universe.states(), frame)


def drive(spec, states):
    """A fresh plan driven over *states*: every emitted successor
    sequence is duplicate-free and every emitted pair is an ``N`` step
    (completeness needs a small universe: see above)."""
    plan = compile_action(spec.next_action).plan(spec.universe)
    action = spec.next_action
    for state in states:
        got = plan.successors(state)
        assert len(got) == len(set(got)), f"duplicates from {state!r}"
        for target in got:
            assert action.holds(Env(state, target)), (state, target)
    return plan


@pytest.mark.parametrize("name", sorted(CERTIFY))
def test_certificate_product_sequences_and_candidates(name):
    spec = safety_product(CERTIFY[name]())
    states = reachable(spec)
    if name.startswith("paxos"):
        states = states[::3]
    plan = drive(spec, states)
    assert plan.candidates == plan.packed.candidates > 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_sequences_and_candidates(name):
    spec = CORPUS[name]().complete_spec()
    plan = drive(spec, reachable(spec, PREFIX))
    assert plan.candidates == plan.packed.candidates > 0


def test_mutex_2_2_candidates_per_expanded_state():
    """Pinned: the flat packed product built 56,160 candidates per
    state of this product; the plan tree builds 1,044 over its 135."""
    graph = explore_compact(safety_product(LamportMutex(2, 2)))
    assert graph.state_count == 135
    assert graph.plan.candidates == 1044


def test_out_of_domain_pre_state_is_refused():
    spec = complete_queue(1)
    plan = compile_action(spec.next_action).plan(spec.universe)
    state = reachable(spec)[0]
    bad = state.assign(q=(7, 7, 7))
    with pytest.raises(ValueError, match=r"'q' has value \(7, 7, 7\)"):
        plan.successors(bad)
    with pytest.raises(ValueError, match="no value for variable 'q'"):
        plan.successors(bad.restrict(set(spec.universe.variables) - {"q"}))


def test_paxos_plan_grows_only_where_states_reach(monkeypatch):
    spec = safety_product(Paxos(2, 2, 2))
    states = reachable(spec)
    plan = compile_action(spec.next_action).plan(spec.universe)
    assert plan.sub_plans == 0  # a fresh plan builds no sub-plan

    reached = {}
    grow = PackedPlan._grow

    def recording(self, node):
        reached[id(node.bp)] = node.bp   # a state got past its checks
        return grow(self, node)

    monkeypatch.setattr(PackedPlan, "_grow", recording)
    for state in states:
        plan.successors(state)
    assert plan.sub_plans > 0
    assert plan.sub_plans == sum(len(bp.expanded or ())
                                 for bp in reached.values())


def test_capped_tree_falls_back_to_the_same_sequences(monkeypatch):
    """Past ``_EXPAND_TOTAL`` sub-plans reached, a node enumerates its
    free domains instead: more candidates, the same successors in the
    same order."""
    spec = safety_product(LamportMutex(2, 2, broken=True))
    states = reachable(spec)
    uncapped = compile_action(spec.next_action).plan(spec.universe)
    expected = [uncapped.successors(state) for state in states]
    monkeypatch.setattr(action_module, "_EXPAND_TOTAL", 120)
    plan = compile_action(spec.next_action).plan(spec.universe)
    for state, successors in zip(states, expected):
        assert plan.successors(state) == successors
    assert plan.sub_plans <= 120 < uncapped.sub_plans
    assert plan.candidates > uncapped.candidates


def test_certificates_render_identically_on_either_engine(monkeypatch):
    for make in CERTIFY.values():
        compact = make().composition_theorem().verify().render()
        monkeypatch.setattr(composition_module, "explore_compact", explore)
        full = make().composition_theorem().verify().render()
        monkeypatch.undo()
        assert compact == full
