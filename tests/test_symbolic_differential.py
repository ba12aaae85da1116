"""Differential tests: the bounded symbolic engine vs the explicit one.

The explicit BFS is the reference semantics.  For every bundled system
and a panel of seeded random specs, the symbolic engine's verdict must
agree with the explicit engine's under the bounded reading:

* explicit VIOLATION at BFS level L, symbolic depth k >= L  =>
  symbolic VIOLATION whose decoded trace *replays* on the concrete
  spec (first state initial, every step a real ``SuccessorPlan``
  successor, last state violating) -- and, with minimisation on, has
  exactly the explicit counterexample's length (the stutter-closed
  encoding makes the minimal SAT depth equal the BFS violation level);
* explicit HOLDS  =>  symbolic UNKNOWN at any depth -- never HOLDS,
  bounded search proves nothing about deeper states;
* symbolic depth k < L  =>  UNKNOWN(k), again never HOLDS.

The deep protocol instances (broken Lamport mutex, violation at level
12; broken Paxos, level 16) take minutes on the pure-Python CDCL
solver, so they run only when ``REPRO_SYMBOLIC_DEEP`` is set -- the CI
``symbolic-differential`` job sets it; the tier-1 run keeps the fast
systems and the random panel.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.checker import check_invariant, explore
from repro.checker.explorer import initial_states
from repro.checker.stats import ExploreStats
from repro.engine import (
    HOLDS,
    UNKNOWN,
    VIOLATION,
    ExplicitEngine,
    SymbolicEngine,
)
from repro.kernel import packed
from repro.kernel.action import compile_action
from repro.kernel.expr import And, Cmp, Const, Eq, Len, Not, Var
from repro.kernel.state import Universe
from repro.kernel.values import FiniteDomain
from repro.spec import Spec
from repro.systems.arbiter import composed_system
from repro.systems.handshake import ready
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import complete_queue

from tests.test_compact_differential import handshake_system, random_spec

DEEP = bool(os.environ.get("REPRO_SYMBOLIC_DEEP"))
needs_deep = pytest.mark.skipif(
    not DEEP, reason="minutes-long CDCL solves; set REPRO_SYMBOLIC_DEEP=1")


def assert_replays(spec, trace, invariant) -> None:
    """The decoded trace is a real behaviour of *spec* ending in a
    violation: this is what makes a symbolic counterexample evidence
    rather than a SAT artifact."""
    states = list(trace)
    assert states, "empty counterexample trace"
    assert states[0] in set(initial_states(spec.init, spec.universe)), (
        f"trace does not start in an initial state: {states[0]!r}")
    plan = compile_action(spec.next_action).plan(spec.universe)
    for pre, post in zip(states, states[1:]):
        assert post in set(plan.successors(pre)), (
            f"decoded step is not a successor: {pre!r} -> {post!r}")
    final = states[-1]
    from repro.kernel.expr import Env

    assert invariant.holds(Env(final)) is False, (
        f"final trace state does not violate the invariant: {final!r}")


def differential(spec, invariant, depth, minimize=True):
    """Run both engines; return (explicit CheckResult, EngineResult)."""
    stats = ExploreStats()
    graph = explore(spec, stats=stats)
    explicit = check_invariant(graph, invariant)
    symbolic = SymbolicEngine(depth=depth, minimize=minimize).check_invariant(
        spec, invariant)
    return explicit, symbolic


class TestBundledSystems:
    def test_queue_overflow_found_at_the_bfs_level(self):
        spec = complete_queue(2)
        invariant = Cmp("<=", Len(Var("q")), 1)
        explicit, symbolic = differential(spec, invariant, depth=6)
        assert not explicit.ok and symbolic.verdict == VIOLATION
        explicit_len = len(list(explicit.counterexample.states()))
        got = list(symbolic.counterexample.states())
        assert len(got) == explicit_len  # minimal: depth == BFS level
        assert_replays(spec, symbolic.counterexample.trace, invariant)

    def test_handshake_violation_and_tautology(self):
        spec = handshake_system()
        violated = ready("c")
        explicit, symbolic = differential(spec, violated, depth=4)
        assert not explicit.ok and symbolic.verdict == VIOLATION
        assert len(list(symbolic.counterexample.states())) == len(
            list(explicit.counterexample.states()))
        assert_replays(spec, symbolic.counterexample.trace, violated)
        holds = Not(And(ready("c"), Not(ready("c"))))
        explicit2, symbolic2 = differential(spec, holds, depth=4)
        assert explicit2.ok
        assert symbolic2.verdict == UNKNOWN  # never HOLDS from a bound
        assert symbolic2.ok is False

    def test_arbiter_mutex_holds_so_symbolic_is_unknown(self):
        spec = composed_system()
        invariant = Not(And(Eq(Var("grant1"), 1), Eq(Var("grant2"), 1)))
        explicit, symbolic = differential(spec, invariant, depth=5)
        assert explicit.ok
        assert symbolic.verdict == UNKNOWN
        assert symbolic.depth == 5

    def test_depth_too_shallow_is_unknown_never_holds(self):
        # the queue overflows at BFS level 4: any bound below that must
        # answer UNKNOWN(k) -- reporting HOLDS would be unsound
        spec = complete_queue(2)
        invariant = Cmp("<=", Len(Var("q")), 1)
        for depth in (1, 2, 3):
            result = SymbolicEngine(depth=depth).check_invariant(
                spec, invariant)
            assert result.verdict == UNKNOWN, f"depth {depth}"
            assert result.verdict != HOLDS
            assert result.depth == depth
            assert result.ok is False


class TestDeepProtocols:
    """The corpus protocols whose violations sit many levels deep --
    exactly the shape BMC exists for.  Gated: see the module docstring."""

    @needs_deep
    def test_broken_mutex_violation_replays_at_minimal_depth(self):
        system = LamportMutex(2, 2, broken=True)
        spec = system.complete_spec()
        invariant = system.mutual_exclusion()
        explicit, symbolic = differential(spec, invariant, depth=12)
        assert not explicit.ok and symbolic.verdict == VIOLATION
        assert len(list(symbolic.counterexample.states())) == len(
            list(explicit.counterexample.states())) == 13
        assert_replays(spec, symbolic.counterexample.trace, invariant)

    @needs_deep
    def test_broken_paxos_violation_replays_within_bound(self):
        system = Paxos(2, 2, 2, broken=True)
        spec = system.complete_spec()
        invariant = system.agreement()
        # minimize=False: one solve at the bound (the binary search's
        # UNSAT refutations below level 16 would add minutes for no
        # extra information -- replayability, not minimality, is the
        # contract here)
        symbolic = SymbolicEngine(depth=18, minimize=False).check_invariant(
            spec, invariant)
        assert symbolic.verdict == VIOLATION
        states = list(symbolic.counterexample.states())
        assert len(states) <= 19
        assert_replays(spec, symbolic.counterexample.trace, invariant)


class TestRandomSpecs:
    """20 seeded random specs: reachability of a pinned target state is
    decided identically by both engines (the target's BFS level bounds
    the needed depth; the explicit run supplies it)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_verdicts_agree(self, seed):
        spec = random_spec(seed)
        assert packed.support_problem(spec) is None, \
            "random specs must stay packable"
        rng = random.Random(seed + 4242)
        target = rng.choice(list(spec.universe.states()))
        invariant = Not(And(*[Eq(Var(name), Const(target[name]))
                              for name in spec.universe.variables]))
        stats = ExploreStats()
        graph = explore(spec, stats=stats)
        explicit = check_invariant(graph, invariant)
        depth = max(stats.depth or 0, 1)
        symbolic = SymbolicEngine(depth=depth).check_invariant(
            spec, invariant)
        if explicit.ok:
            # unreachable within the whole graph => UNSAT at any depth
            assert symbolic.verdict == UNKNOWN, f"seed {seed}"
        else:
            assert symbolic.verdict == VIOLATION, f"seed {seed}"
            explicit_len = len(list(explicit.counterexample.states()))
            got = list(symbolic.counterexample.states())
            assert len(got) == explicit_len, f"seed {seed}"
            assert_replays(spec, symbolic.counterexample.trace, invariant)


class TestSupportsProbe:
    """The public ``packed.support_problem`` probe that the symbolic
    translator uses."""

    def test_bundled_systems_are_supported(self):
        for spec in (complete_queue(2), handshake_system(),
                     composed_system()):
            assert packed.support_problem(spec) is None

    def test_oversized_domain_is_reported(self):
        universe = Universe(
            {"x": FiniteDomain(range(packed.MAX_DOMAIN_SIZE + 1))})
        spec = Spec("huge", Eq(Var("x"), Const(0)),
                    Eq(Var("x", primed=True), Var("x")), ("x",), universe)
        problem = packed.support_problem(spec)
        assert problem is not None and "exceeds" in problem

    def test_probe_accepts_a_bare_universe(self):
        assert packed.support_problem(complete_queue(2).universe) is None


class TestEngineRegistry:
    def test_explicit_engine_agrees_with_direct_checker(self):
        spec = complete_queue(2)
        invariant = Cmp("<=", Len(Var("q")), 1)
        engine = ExplicitEngine()
        result = engine.check_invariant(spec, invariant, name="cap")
        assert result.verdict == VIOLATION
        direct = check_invariant(explore(spec), invariant, name="cap")
        assert (result.counterexample.render()
                == direct.counterexample.render())
