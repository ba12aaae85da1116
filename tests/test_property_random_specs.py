"""Property-based tests over seeded random specifications.

A deterministic random-spec generator builds small universes (2-3
variables over tiny integer domains) and random guarded-assignment
actions (disjunctions of conjunctions of guards, primed-variable
bindings, residual primed constraints, and rigid quantifiers).  Two
oracle comparisons then pin the successor machinery:

* ``SuccessorPlan.successors(s)`` must agree exactly with brute-force
  enumeration -- filter *all* states of the universe by evaluating the
  action on the step ``(s, t)`` -- for every state ``s``, and a BFS over
  that brute force rebuilds ``explore``'s graph of the bundled appendix
  queue and Figure 1 circuit;
* ``State`` pickling and fingerprinting must round-trip: equality, hash,
  and fingerprint survive ``pickle``, and the fingerprint is stable
  across interpreter processes regardless of ``PYTHONHASHSEED`` (the
  property the parallel explorer's batch keying relies on).

Everything is seeded with ``random.Random``: failures reproduce exactly.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.checker import explore
from repro.checker.explorer import initial_states
from repro.kernel.action import compile_action, holds_on_step
from repro.kernel.expr import (
    And,
    Arith,
    Cmp,
    Const,
    Eq,
    EvalError,
    Exists,
    Expr,
    Not,
    Or,
    Var,
)
from repro.kernel.state import State, Universe
from repro.kernel.values import FiniteDomain
from repro.systems.circuit import composed_processes
from repro.systems.queue import complete_queue

VAR_NAMES = ("x", "y", "z")


def random_universe(rng: random.Random) -> Universe:
    count = rng.randint(2, 3)
    return Universe({
        name: FiniteDomain(range(rng.randint(2, 3)))
        for name in VAR_NAMES[:count]
    })


def random_guard(rng: random.Random, universe: Universe) -> Expr:
    name = rng.choice(universe.variables)
    const = rng.choice(list(universe.domain(name).values()))
    kind = rng.randrange(4)
    if kind == 0:
        return Eq(Var(name), Const(const))
    if kind == 1:
        return Not(Eq(Var(name), Const(const)))
    if kind == 2:
        return Cmp(rng.choice(("<", "<=", ">", ">=")), Var(name), Const(const))
    # a rigid quantifier: ∃k ∈ dom : v = k ∧ k <= c  (always exercises the
    # Exists-compilation path, sometimes restricting, sometimes not)
    return Exists("k", universe.domain(name),
                  And(Eq(Var(name), Var("k")), Cmp("<=", Var("k"), Const(const))))


def random_binding(rng: random.Random, universe: Universe, name: str) -> Expr:
    other = rng.choice(universe.variables)
    kind = rng.randrange(3)
    if kind == 0:
        value = rng.choice(list(universe.domain(other).values()))
        rhs: Expr = Const(value)
    elif kind == 1:
        rhs = Var(other)
    else:
        # may step outside the domain: the compiler must drop the branch
        # for states where it does, exactly like brute force
        rhs = Arith("+", Var(other), 1)
    return Eq(Var(name, primed=True), rhs)


def random_branch(rng: random.Random, universe: Universe) -> Expr:
    conjuncts: List[Expr] = []
    for _ in range(rng.randint(0, 2)):
        conjuncts.append(random_guard(rng, universe))
    bound = rng.sample(universe.variables, rng.randint(0, len(universe.variables)))
    for name in bound:
        conjuncts.append(random_binding(rng, universe, name))
    if rng.random() < 0.4:
        # a residual primed constraint (not a binding): forces the
        # candidate-filtering path of the plan
        name = rng.choice(universe.variables)
        conjuncts.append(Not(Eq(Var(name, primed=True), Var(name))))
    if not conjuncts:
        conjuncts.append(Const(True))
    return And(*conjuncts)


def random_action(rng: random.Random, universe: Universe) -> Expr:
    return Or(*[random_branch(rng, universe)
                for _ in range(rng.randint(1, 3))])


def brute_force_successors(action: Expr, state: State,
                           universe: Universe) -> set:
    result = set()
    for candidate in universe.states():
        try:
            if holds_on_step(action, state, candidate):
                result.add(candidate)
        except EvalError:
            pass  # a type error on this step: not a successor
    return result


@pytest.mark.parametrize("seed", range(30))
def test_plan_successors_agree_with_brute_force(seed):
    rng = random.Random(seed)
    universe = random_universe(rng)
    action = random_action(rng, universe)
    plan = compile_action(action).plan(universe)
    for state in universe.states():
        got = list(plan.successors(state))
        assert len(got) == len(set(got)), (
            f"seed {seed}: duplicate successors for {state!r}"
        )
        expected = brute_force_successors(action, state, universe)
        assert set(got) == expected, (
            f"seed {seed}: plan and brute force disagree on {state!r} "
            f"under {action!r}"
        )


@pytest.mark.parametrize("seed", range(30))
def test_plan_enabled_agrees_with_brute_force(seed):
    rng = random.Random(seed + 1000)
    universe = random_universe(rng)
    action = random_action(rng, universe)
    plan = compile_action(action).plan(universe)
    for state in universe.states():
        assert plan.enabled(state) == bool(
            brute_force_successors(action, state, universe)
        )


@pytest.mark.parametrize("make_spec", [lambda: complete_queue(2),
                                       composed_processes],
                         ids=["queue", "circuit"])
def test_explored_graph_matches_brute_force_bfs(make_spec):
    spec = make_spec()
    states = list(initial_states(spec.init, spec.universe))
    seen, edges = set(states), set()
    for state in states:  # grows as the BFS discovers states
        for succ in brute_force_successors(spec.next_action, state,
                                           spec.universe):
            if succ != state:
                edges.add((state, succ))
            if succ not in seen:
                seen.add(succ)
                states.append(succ)
    graph = explore(spec)
    assert set(graph.states) == seen
    assert {(graph.states[src], graph.states[dst])
            for src, outs in enumerate(graph.succ)
            for dst in outs if dst != src} == edges
    assert graph.edge_count == len(edges)
    assert graph.stutter_count == graph.state_count


# -- State pickle / fingerprint properties -----------------------------------


def random_states(seed: int, count: int = 40) -> List[State]:
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        universe = random_universe(rng)
        assignment = {
            name: rng.choice(list(universe.domain(name).values()))
            for name in universe.variables
        }
        # sprinkle in composite values: tuples and strings
        if rng.random() < 0.5:
            assignment["q"] = tuple(
                rng.randrange(3) for _ in range(rng.randint(0, 3))
            )
        if rng.random() < 0.3:
            assignment["mode"] = rng.choice(("idle", "busy"))
        states.append(State(assignment))
    return states


@pytest.mark.parametrize("seed", range(10))
def test_state_pickle_roundtrip_preserves_identity(seed):
    for state in random_states(seed):
        clone = pickle.loads(pickle.dumps(state,
                                          protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == state
        assert hash(clone) == hash(state)
        assert clone.fingerprint() == state.fingerprint()
        assert clone in {state}  # usable as the same dict/set key
        assert dict(clone) == dict(state)


def test_fingerprint_ignores_construction_path():
    a = State({"x": 1, "y": (0, 1)})
    b = State._trusted({"y": (0, 1), "x": 1})
    c = State({"x": 0, "y": (0, 1)}).update({"x": 1})
    assert a.fingerprint() == b.fingerprint() == c.fingerprint()
    # and caching returns the same value
    assert a.fingerprint() == a.fingerprint()


def test_fingerprints_distinct_across_a_universe():
    universe = Universe({name: FiniteDomain(range(3)) for name in VAR_NAMES})
    fingerprints = [state.fingerprint() for state in universe.states()]
    assert len(set(fingerprints)) == len(fingerprints)


def test_fingerprint_distinguishes_value_kinds():
    # 0 / False / "" / () must not collide under the tagged encoding
    states = [State({"x": 0}), State({"x": False}), State({"x": ""}),
              State({"x": ()})]
    fingerprints = {s.fingerprint() for s in states}
    assert len(fingerprints) == 4


_FINGERPRINT_SNIPPET = (
    "from repro.kernel.state import State; "
    "print(State({'i.sig': 1, 'q': (0, 1, 0), 'mode': 'busy'}).fingerprint())"
)


def test_fingerprint_stable_across_hash_seeds():
    """The fingerprint must not inherit ``PYTHONHASHSEED`` sensitivity from
    the built-in ``hash`` -- it is compared across coordinator runs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1] == outputs[2]
    # and the in-process value agrees with the subprocesses
    local = State({"i.sig": 1, "q": (0, 1, 0), "mode": "busy"}).fingerprint()
    assert str(local) == outputs[0]


def test_state_pickle_skips_revalidation_via_trusted_path():
    """The pickle reducer routes through ``_trusted``; the payload is just
    the raw mapping (cheap worker hand-off, no ``check_value`` re-walk)."""
    state = State({"x": 1})
    func, args = state.__reduce__()
    assert args == ({"x": 1},)
    rebuilt = func(*args)
    assert rebuilt == state


def make_pairs(seed: int) -> List[Tuple[State, State]]:
    states = random_states(seed, count=20)
    rng = random.Random(seed + 7)
    return [(rng.choice(states), rng.choice(states)) for _ in range(30)]


@pytest.mark.parametrize("seed", range(5))
def test_fingerprint_equality_tracks_state_equality(seed):
    for lhs, rhs in make_pairs(seed):
        if lhs == rhs:
            assert lhs.fingerprint() == rhs.fingerprint()
        else:
            # not a guarantee in general (64-bit hash), but on these tiny
            # deterministic samples a collision means the fold is broken
            assert lhs.fingerprint() != rhs.fingerprint()
