"""Unit tests for the action toolkit and the successor compiler."""

import pytest

from repro.kernel import (
    BOOLEAN,
    ActionPlans,
    And,
    Const,
    Eq,
    Exists,
    Not,
    Or,
    State,
    TupleExpr,
    Universe,
    Var,
    angle,
    changed,
    compile_action,
    enabled,
    holds_on_step,
    interval,
    square,
    successors,
    unchanged,
)
from repro.kernel import action as action_module
from repro.kernel.action import CompiledAction, SuccessorPlan
from repro.kernel.expr import EvalError
from repro.spec import conjoin

from tests.conftest import st

x, y = Var("x"), Var("y")
xp, yp = Var("x", primed=True), Var("y", primed=True)


def succ_set(action, state, universe, frame=None):
    return set(successors(action, state, universe, frame))


@pytest.fixture
def uni():
    return Universe({"x": interval(0, 2), "y": interval(0, 2)})


class TestHelpers:
    def test_unchanged(self):
        action = unchanged(["x", "y"])
        assert holds_on_step(action, st(x=1, y=2), st(x=1, y=2))
        assert not holds_on_step(action, st(x=1, y=2), st(x=1, y=3))

    def test_unchanged_empty(self):
        assert holds_on_step(unchanged([]), st(x=0), st(x=5))

    def test_changed(self):
        assert holds_on_step(changed(["x"]), st(x=0), st(x=1))
        assert not holds_on_step(changed(["x"]), st(x=0), st(x=0))

    def test_square_allows_stutter(self):
        action = square(Eq(xp, x + 1), ["x"])
        assert holds_on_step(action, st(x=0), st(x=1))
        assert holds_on_step(action, st(x=0), st(x=0))
        assert not holds_on_step(action, st(x=0), st(x=2))

    def test_angle_requires_change(self):
        action = angle(Eq(xp, x), ["x"])
        assert not holds_on_step(action, st(x=0), st(x=0))


class TestCompile:
    def test_binding_recognised(self):
        compiled = compile_action(Eq(xp, x + 1))
        assert len(compiled.branches) == 1
        assert set(compiled.branches[0].bindings) == {"x"}

    def test_binding_reversed_orientation(self):
        compiled = compile_action(Eq(x + 1, xp))
        assert set(compiled.branches[0].bindings) == {"x"}

    def test_primed_rhs_not_binding(self):
        compiled = compile_action(Eq(xp, yp))
        assert not compiled.branches[0].bindings

    def test_disjunction_branches(self):
        compiled = compile_action(Or(Eq(xp, 0), Eq(xp, 1)))
        assert len(compiled.branches) == 2

    def test_tuple_destructuring(self):
        compiled = compile_action(Eq(TupleExpr(xp, yp), TupleExpr(y, x)))
        assert set(compiled.branches[0].bindings) == {"x", "y"}

    def test_exists_expansion(self):
        compiled = compile_action(Exists("v", interval(0, 2), Eq(xp, Var("v"))))
        assert len(compiled.branches) == 3

    def test_false_compiles_to_nothing(self):
        assert compile_action(Const(False)).branches == []

    def test_true_compiles_to_one_empty_branch(self):
        branches = compile_action(Const(True)).branches
        assert len(branches) == 1
        assert not branches[0].bindings and not branches[0].constraints

    def test_conflicting_bindings_become_checks(self):
        compiled = compile_action(And(Eq(xp, 0), Eq(xp, 1)))
        branch = compiled.branches[0]
        assert branch.binding_checks

    def test_owner_caches_by_identity(self, uni):
        action = Eq(xp, x)
        owner = ActionPlans()
        assert owner.plan(action, uni) is owner.plan(action, uni)
        assert len(owner) == 1
        # nothing process-wide: another owner compiles its own
        assert compile_action(action) is not compile_action(action)


class TestSuccessors:
    def test_deterministic_action(self, uni):
        action = And(Eq(xp, x + 1), Eq(yp, y))
        assert succ_set(action, st(x=0, y=0), uni) == {st(x=1, y=0)}

    def test_out_of_domain_post_state(self, uni):
        action = And(Eq(xp, x + 1), Eq(yp, y))
        assert succ_set(action, st(x=2, y=0), uni) == set()

    def test_unconstrained_var_enumerates(self, uni):
        action = Eq(xp, 0)
        result = succ_set(action, st(x=1, y=1), uni)
        assert result == {st(x=0, y=0), st(x=0, y=1), st(x=0, y=2)}

    def test_frame_pins_variables(self, uni):
        action = Eq(xp, 0)
        assert succ_set(action, st(x=1, y=1), uni, frame=["x"]) == {st(x=0, y=1)}

    def test_frame_conflicting_binding_filtered(self, uni):
        # the action wants to change y, but y is outside the frame
        action = And(Eq(xp, 0), Eq(yp, 2))
        assert succ_set(action, st(x=1, y=1), uni, frame=["x"]) == set()

    def test_residual_constraint(self, uni):
        action = And(Eq(xp, x), Not(Eq(yp, y)))
        result = succ_set(action, st(x=0, y=0), uni)
        assert result == {st(x=0, y=1), st(x=0, y=2)}

    def test_disjunction_dedups(self, uni):
        action = Or(And(Eq(xp, 1), Eq(yp, y)), And(Eq(xp, 1), Eq(yp, y)))
        assert len(list(successors(action, st(x=0, y=0), uni))) == 1

    def test_conflicting_conjunction_empty(self, uni):
        action = And(Eq(xp, 0), Eq(xp, 1), Eq(yp, y))
        assert succ_set(action, st(x=2, y=0), uni) == set()

    def test_eval_error_disables_branch(self, uni):
        from repro.kernel import Head

        action = And(Eq(xp, Head(TupleExpr())), Eq(yp, y))
        assert succ_set(action, st(x=0, y=0), uni) == set()

    def test_guard_blocks(self, uni):
        action = And(Eq(x, 0), Eq(xp, 1), Eq(yp, y))
        assert succ_set(action, st(x=1, y=0), uni) == set()
        assert succ_set(action, st(x=0, y=0), uni) == {st(x=1, y=0)}

    def test_exists_successors(self, uni):
        action = And(Exists("v", interval(0, 2), Eq(xp, Var("v"))), Eq(yp, y))
        assert len(succ_set(action, st(x=0, y=0), uni)) == 3


class TestEnabled:
    def test_enabled_basic(self, uni):
        action = And(Eq(x, 0), Eq(xp, 1), Eq(yp, y))
        assert enabled(action, st(x=0, y=0), uni)
        assert not enabled(action, st(x=1, y=0), uni)

    def test_enabled_angle_of_stutter(self, uni):
        # <x' = x>_x can never change x, hence never enabled
        action = angle(Eq(xp, x), ["x"])
        assert not enabled(And(action, Eq(yp, y)), st(x=0, y=0), uni)

    def test_enabled_depends_on_domain(self):
        small = Universe({"x": interval(0, 0)})
        action = Eq(xp, x + 1)
        assert not enabled(action, State({"x": 0}), small)

    @pytest.mark.parametrize("state, reason", [
        (State({"x": 0, "y": 7}), "variable 'y' has value 7, outside"),
        (State({"x": 0}), "no value for variable 'y'"),
    ], ids=["out-of-domain", "missing"])
    def test_enabled_fails_closed_on_a_state_outside_the_universe(
            self, uni, state, reason):
        # y is free and no step constraint reads it: a walker that pinned
        # it to some domain value would answer for another state
        action = angle(Eq(xp, 1), ["x"])
        with pytest.raises(ValueError, match=reason):
            enabled(action, state, uni)

    def test_enabled_never_builds_the_free_product(self):
        # <x0' = ~x0>_{x0} leaves x1..x19 free; one witness keeps the
        # row's own codes for them instead of walking 2^19 candidates
        names = [f"x{i}" for i in range(20)]
        x0 = Var("x0")
        plan = compile_action(angle(Eq(x0.prime(), Not(x0)), ["x0"])).plan(
            Universe({name: BOOLEAN for name in names}))
        assert plan.enabled(State({name: False for name in names}))
        assert plan.candidates == 1
        nodes = list(plan.packed.roots)
        for node in nodes:
            nodes += node.children or ()
        assert [node.offsets for node in nodes] == [None] * len(nodes)


# -- certificate products: the plans that expand ------------------------------
#
# The safety products of the Paxos(2,2,2) and Mutex(2,3) certificates are
# the specs whose plans refine through nested sub-plans; the random-spec
# oracle in test_property_random_specs.py never builds one.

def _safety_product(theorem):
    goal = theorem.goal
    specs = ([] if goal.assumption is None
             else [goal.assumption.without_fairness()])
    specs += [ag.guarantee_spec.without_fairness()
              for ag in theorem.all_parts]
    return conjoin(specs)


@pytest.fixture(scope="module", params=["paxos-2-2-2", "mutex-2-3"])
def product(request):
    from repro.checker import explore
    from repro.systems.mutex import LamportMutex
    from repro.systems.paxos import Paxos

    system = (Paxos(2, 2, 2) if request.param == "paxos-2-2-2"
              else LamportMutex(2, 3))
    spec = _safety_product(system.composition_theorem())
    return spec, explore(spec).states


def _brute_force_disjunct(branch, universe, state):
    """One compiled disjunct, the long way: every post-state of the
    universe's domain product that ``holds_on_step`` accepts for all of
    its conjuncts, in domain-product order.  Variables are assigned
    conjunct by conjunct so each conjunct filters as soon as everything it
    mentions has a value; the order of the result does not depend on it."""
    def holds(conjunct, post):
        try:
            return holds_on_step(conjunct, state, State(post))
        except EvalError:
            return False

    conjuncts = sorted(
        [Eq(Var(name, primed=True), expr)
         for name, expr in [*branch.bindings.items(), *branch.binding_checks]]
        + list(branch.constraints),
        key=lambda conjunct: len(conjunct.primed_vars()))
    order = []
    for conjunct in conjuncts:
        order += sorted(conjunct.primed_vars() - set(order))
    order += [name for name in universe.variables if name not in order]
    partial, assigned = [dict(state)], set()
    for name in [None] + order:  # None: the prime-free guards
        if name is not None:
            partial = [{**post, name: value} for post in partial
                       for value in universe.domain(name).values()]
            assigned.add(name)
        decidable = [c for c in conjuncts if c.primed_vars() <= assigned]
        conjuncts = [c for c in conjuncts if not c.primed_vars() <= assigned]
        partial = [post for post in partial
                   if all(holds(c, post) for c in decidable)]
    index = {name: {value: rank for rank, value
                    in enumerate(universe.domain(name).values())}
             for name in universe.variables}
    return sorted((State(post) for post in partial),
                  key=lambda t: [index[name][t[name]]
                                 for name in universe.variables])


class TestCertificateProductPlans:
    def test_successor_sequence_matches_brute_force(self, product):
        spec, states = product
        compiled = compile_action(spec.next_action)
        plan = compiled.plan(spec.universe)
        for state in states[::len(states) // 3]:  # sampled: up to 1 s a state
            expected = []
            for branch in compiled.branches:
                expected += [
                    t for t in _brute_force_disjunct(branch, spec.universe,
                                                     state)
                    if t not in expected]
            assert list(plan.successors(state)) == expected

    def test_enabled_is_some_successor(self, product):
        spec, states = product
        plan = compile_action(spec.next_action).plan(spec.universe)
        for state in states:
            assert plan.enabled(state) == any(True for _ in
                                              plan.successors(state))

    def test_each_constraint_compiled_once_per_build(self, product,
                                                     monkeypatch):
        """Sub-plans grow as states reach them, so the compiles happen
        while the plan is driven: over every reachable state, each
        opaque constraint is compiled at most once."""
        spec, states = product
        compiled = compile_action(spec.next_action)
        entered, depth = [], [0]
        real = action_module._compile

        def counting(expr):
            if depth[0] == 0:  # the build's own calls, not the recursion
                entered.append(expr)
            depth[0] += 1
            try:
                return real(expr)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(action_module, "_compile", counting)
        plan = compiled.plan(spec.universe)
        for state in states:
            list(plan.successors(state))
        assert entered and len(entered) == len({id(e) for e in entered})

    def test_compiled_forms_do_not_travel_or_linger(self, product):
        import gc
        import pickle
        from repro.checker import explore

        spec, _states = product
        size = len(pickle.dumps(spec))
        explore(spec)
        assert len(pickle.dumps(spec)) == size
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, SuccessorPlan)
                    and obj.universe is spec.universe]


def test_verify_rounds_leave_no_compiled_actions_behind():
    import gc
    from repro.systems.paxos import Paxos

    system = Paxos(2, 2, 2)

    def live_after_a_round():
        system.composition_theorem().verify()
        gc.collect()
        return sum(isinstance(obj, (SuccessorPlan, CompiledAction))
                   for obj in gc.get_objects())

    first = live_after_a_round()
    for _ in range(2):
        live_after_a_round()
    assert live_after_a_round() == first


def test_a_dropped_plan_frees_its_walker_without_the_cyclic_collector():
    """A plan keeps no reference back to the compiled action that caches
    it, so dropping both frees the plan's packed walker -- and every
    footprint memo it holds -- by reference count alone."""
    import gc
    import weakref
    from repro.checker import initial_states
    from repro.systems.queue import QueueChain

    spec = QueueChain(3, 1).complete_spec()
    compiled = compile_action(spec.next_action)
    plan = compiled.plan(spec.universe)
    init = next(initial_states(spec.init, spec.universe))
    assert list(plan.successors(init))
    walker = weakref.ref(plan.packed)
    gc.disable()
    try:
        del plan, compiled
        assert walker() is None
    finally:
        gc.enable()
