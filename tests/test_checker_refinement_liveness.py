"""Unit tests for refinement checking and the fair-cycle liveness engine."""

import pytest

from repro.checker import (
    MappedGraph,
    PremiseConstraint,
    RefinementMapping,
    check_deadlock_free,
    check_invariant,
    check_safety_refinement,
    check_temporal_implication,
    explore,
    explore_compact,
    fair_units,
    premises_of_spec,
)
from repro.kernel import (
    And,
    Arith,
    BIT,
    Const,
    Eq,
    Lasso,
    Or,
    Universe,
    Var,
    interval,
)
from repro.spec import Spec, strong_fairness, weak_fairness
from repro.temporal import (
    ActionBox,
    ActionDiamond,
    Always,
    Eventually,
    LeadsTo,
    SF,
    StatePred,
    TAnd,
    holds,
)

from tests.conftest import counter_spec, st

x, y = Var("x"), Var("y")


def counter6():
    universe = Universe({"x": interval(0, 5)})
    step = Eq(x.prime(), Arith("%", x + 1, Const(6)))
    return Spec("c6", Eq(x, 0), step, ("x",), universe,
                [weak_fairness(("x",), step)])


def parity_spec():
    universe = Universe({"y": BIT})
    step = Eq(y.prime(), 1 - y)
    return Spec("parity", Eq(y, 0), step, ("y",), universe,
                [weak_fairness(("y",), step)])


PARITY_MAP = RefinementMapping({"y": Arith("%", x, Const(2))})


class TestRefinementMapping:
    def test_identity_default(self):
        mapped = RefinementMapping().target_state(st(x=1), Universe({"x": BIT}))
        assert mapped == st(x=1)

    def test_mapping_expression(self):
        mapped = PARITY_MAP.target_state(st(x=3), Universe({"y": BIT}))
        assert mapped == st(y=1)

    def test_primes_rejected(self):
        with pytest.raises(ValueError):
            RefinementMapping({"y": Eq(x.prime(), 0)})

    def test_unproducible_target_var(self):
        from repro.kernel import EvalError

        with pytest.raises(EvalError):
            RefinementMapping().target_state(st(x=0), Universe({"z": BIT}))

    def test_map_lasso(self):
        la = Lasso([st(x=0), st(x=1)], 0)
        mapped = PARITY_MAP.map_lasso(la, Universe({"y": BIT}))
        assert [s["y"] for s in mapped.states] == [0, 1]


class TestSafetyRefinement:
    def test_valid(self):
        result = check_safety_refinement(counter6(), parity_spec(), PARITY_MAP)
        assert result.ok
        assert result.stats["states"] == 6

    def test_invalid_mapping_found(self):
        bad = RefinementMapping({"y": Arith("%", x + 1, Const(2))})
        result = check_safety_refinement(counter6(), parity_spec(), bad)
        assert not result.ok
        assert result.counterexample is not None

    def test_domain_check_catches_escape(self):
        bad = RefinementMapping({"y": x})  # x reaches 5, outside BIT
        with pytest.raises(ValueError, match="outside its target domain"):
            check_safety_refinement(counter6(), parity_spec(), bad)

    def test_bad_initial_state(self):
        target = Spec("y1", Eq(y, 1), Eq(y.prime(), y), ("y",),
                      Universe({"y": BIT}))
        result = check_safety_refinement(counter6(), target, PARITY_MAP)
        assert not result.ok
        assert "Init" in result.counterexample.reason

    def test_graph_reuse(self):
        graph = explore(counter6())
        result = check_safety_refinement(graph, parity_spec(), PARITY_MAP)
        assert result.ok

    def test_compact_graph_gives_the_full_graphs_results(self):
        bad = RefinementMapping({"y": Arith("%", x + 1, Const(2))})
        for mapping in (PARITY_MAP, bad):
            full, compact = (
                check_safety_refinement(graph, parity_spec(), mapping)
                for graph in (explore(counter6()),
                              explore_compact(counter6())))
            assert (compact.ok, compact.stats) == (full.ok, full.stats)
            assert ((compact.counterexample and
                     compact.counterexample.render())
                    == (full.counterexample and
                        full.counterexample.render()))


class TestInvariantsAndDeadlock:
    def test_invariant_counterexample_trace(self):
        result = check_invariant(counter6(), x < 3)
        assert not result.ok
        trace = result.counterexample.trace
        assert [s["x"] for s in trace] == [0, 1, 2, 3]

    def test_deadlock_free(self):
        assert check_deadlock_free(counter6()).ok

    def test_deadlock_detected(self):
        universe = Universe({"x": BIT})
        spec = Spec("dead", Eq(x, 0), And(Eq(x, 0), Eq(x.prime(), 1)),
                    ("x",), universe)
        result = check_deadlock_free(spec)
        assert not result.ok

    def test_expect_ok_raises_with_trace(self):
        result = check_invariant(counter6(), x < 3)
        with pytest.raises(AssertionError, match="counterexample"):
            result.expect_ok()


class TestFairUnits:
    a = And(Eq(x, 0), Eq(x.prime(), 1))
    b = And(Eq(x, 0), Eq(x.prime(), 2))
    c = And(Eq(x, 1), Eq(x.prime(), 0))
    d = And(Eq(x, 2), Eq(x.prime(), 2))

    def choice_spec(self):
        return Spec("choice", Eq(x, 0), Or(self.a, self.b, self.c, self.d),
                    ("x",), Universe({"x": interval(0, 2)}))

    def make_choice_graph(self):
        """0 <-> 1, and 0 -> 2 (absorbing)."""
        return explore(self.choice_spec()), self.a, self.b, self.c

    def test_no_premises_every_scc_fair(self):
        graph, *_ = self.make_choice_graph()
        units = fair_units(MappedGraph(graph), range(graph.state_count),
                           lambda s, d: True, [])
        assert units  # at least the {0,1} component and the singletons

    def test_wf_discards_always_enabled_stutter(self):
        graph, a, b, c = self.make_choice_graph()
        whole = Or(a, b, c)
        premise = PremiseConstraint("WF", ("x",), whole)
        units = fair_units(MappedGraph(graph), range(graph.state_count),
                           lambda s, d: True, [premise])
        # singleton {x=0} stuttering forever is not WF-fair (always enabled);
        # the {0,1} cycle is; {2} is fair because the action is disabled there
        flat = [set(graph.states[n]["x"] for n in unit) for unit in units]
        assert {0, 1} in flat or any(0 in u and 1 in u for u in flat)
        assert {2} in flat
        assert {0} not in flat

    def test_units_identical_on_the_compact_graph(self):
        graph, a, b, c = self.make_choice_graph()
        compact = explore_compact(self.choice_spec())
        for premises in ([], [PremiseConstraint("WF", ("x",), Or(a, b, c))],
                         [PremiseConstraint("SF", ("x",), b)]):
            assert (fair_units(MappedGraph(compact),
                               range(compact.state_count),
                               lambda s, d: True, premises)
                    == fair_units(MappedGraph(graph),
                                  range(graph.state_count),
                                  lambda s, d: True, premises))

    def test_premises_refuse_a_mapped_view(self):
        graph, a, b, c = self.make_choice_graph()
        premise = PremiseConstraint("WF", ("x",), Or(a, b, c))
        view = MappedGraph(graph, universe=Universe({"x": interval(0, 2)}))
        with pytest.raises(ValueError, match="identity view"):
            fair_units(view, range(graph.state_count),
                       lambda s, d: True, [premise])

    def test_sf_removal_recursion(self):
        graph, a, b, c = self.make_choice_graph()
        premise = PremiseConstraint("SF", ("x",), b)
        units = fair_units(MappedGraph(graph), range(graph.state_count),
                           lambda s, d: True, [premise])
        # any fair unit must avoid x=0 (where b is enabled but untaken)
        for unit in units:
            assert all(graph.states[n]["x"] != 0 for n in unit)


class TestLivenessConclusions:
    def test_eventually_holds(self):
        result = check_temporal_implication(
            counter_spec(), Eventually(StatePred(Eq(x, 2))))
        assert result.ok

    def test_eventually_fails_without_fairness(self):
        result = check_temporal_implication(
            counter_spec(fair=False), Eventually(StatePred(Eq(x, 2))))
        assert not result.ok
        assert result.counterexample.is_lasso

    def test_counterexample_is_validated(self):
        """The reported lasso really satisfies premises and violates the
        conclusion under the exact semantics."""
        spec = counter_spec(fair=False)
        conclusion = Eventually(StatePred(Eq(x, 2)))
        result = check_temporal_implication(spec, conclusion)
        la = result.counterexample.trace
        assert holds(spec.safety_formula(), la, spec.universe)
        assert not holds(conclusion, la, spec.universe)

    def test_leadsto(self):
        result = check_temporal_implication(
            counter_spec(), LeadsTo(StatePred(Eq(x, 1)), StatePred(Eq(x, 0))))
        assert result.ok

    def test_always_eventually(self):
        result = check_temporal_implication(
            counter_spec(), Always(Eventually(StatePred(Eq(x, 0)))))
        assert result.ok

    def test_action_diamond(self):
        step = counter_spec().next_action
        result = check_temporal_implication(
            counter_spec(), ActionDiamond(step, ("x",)))
        assert result.ok
        result = check_temporal_implication(
            counter_spec(fair=False), ActionDiamond(step, ("x",)))
        assert not result.ok

    def test_wf_conclusion_through_mapping(self):
        impl = counter6()
        target = parity_spec()
        result = check_temporal_implication(
            impl, target.liveness_formula(), mapping=PARITY_MAP,
            target_universe=target.universe)
        assert result.ok

    def test_wf_conclusion_violated(self):
        impl = counter6().without_fairness()
        target = parity_spec()
        result = check_temporal_implication(
            impl, target.liveness_formula(), mapping=PARITY_MAP,
            target_universe=target.universe)
        assert not result.ok

    def test_sf_conclusion(self):
        # premise SF(b) gives conclusion <>(x=2); conclusion SF over the
        # same action must hold as well
        a = And(Eq(x, 0), Eq(x.prime(), 1))
        b = And(Eq(x, 0), Eq(x.prime(), 2))
        c = And(Eq(x, 1), Eq(x.prime(), 0))
        action = Or(a, b, c)
        spec = Spec("s", Eq(x, 0), action, ("x",),
                    Universe({"x": interval(0, 2)}),
                    [weak_fairness(("x",), action),
                     strong_fairness(("x",), b)])
        result = check_temporal_implication(spec, SF(("x",), b))
        assert result.ok
        weak = Spec("w", Eq(x, 0), action, ("x",),
                    Universe({"x": interval(0, 2)}),
                    [weak_fairness(("x",), action)])
        result = check_temporal_implication(weak, SF(("x",), b))
        assert not result.ok

    def test_safety_conjuncts_checked_too(self):
        spec = counter_spec()
        formula = TAnd(StatePred(Eq(x, 0)),
                       Always(StatePred(x < 3)),
                       ActionBox(spec.next_action, ("x",)))
        assert check_temporal_implication(spec, formula).ok
        assert not check_temporal_implication(
            spec, Always(StatePred(x < 2))).ok

    def test_domain_check_catches_escape(self):
        """The mapped states a conclusion reads are refused outside the
        target domains, as safety refinement refuses them."""
        bad = RefinementMapping({"y": x})  # x reaches 5, outside BIT
        with pytest.raises(ValueError, match="outside its target domain"):
            check_temporal_implication(
                counter6(), Always(Eventually(StatePred(Eq(y, 0)))),
                mapping=bad, target_universe=Universe({"y": BIT}))

    def test_premises_reused_on_a_second_graph(self):
        """One premise list checked against two graphs answers ENABLED
        for each graph: node 0 is (0, 0) in the first, where WF(A) forces
        the step to x = 1, and (0, 1) in the second, where A is disabled
        and the behavior stutters at x = 0."""
        universe = Universe({"x": BIT, "y": BIT})
        step = And(Eq(x, 0), Eq(y, 0), Eq(x.prime(), 1), Eq(y.prime(), y))

        def spec(y0):
            return Spec(f"y0={y0}", And(Eq(x, 0), Eq(y, y0)), step,
                        ("x", "y"), universe,
                        [weak_fairness(("x", "y"), step)])

        premises = premises_of_spec(spec(0))
        prop = Always(Eventually(StatePred(Eq(x, 1))))
        assert check_temporal_implication(
            explore_compact(spec(0)), prop, premises=premises).ok
        assert not check_temporal_implication(
            explore_compact(spec(1)), prop, premises=premises).ok

    def test_unsupported_conclusion_rejected(self):
        from repro.temporal import TOr

        with pytest.raises(TypeError, match="unsupported"):
            check_temporal_implication(
                counter_spec(),
                TOr(Eventually(StatePred(Eq(x, 1))),
                    Eventually(StatePred(Eq(x, 2)))))


class TestEnabledMemoPinsEachActionOnce:
    def test_doublequeue_2b_pins_one_action(self):
        """Hypothesis 2b of DoubleQueue(2) asks ENABLED of the goal's one
        WF action on thousands of nodes; the checker holds that action
        (and its plan) once, not once per query."""
        from repro.checker.liveness import ConclusionChecker, premises_of_spec
        from repro.systems.queue import DoubleQueue

        from .test_certificate_sharing import _full_product

        theorem = DoubleQueue(2).composition_theorem()
        goal = theorem.goal
        full = _full_product(theorem)
        checker = ConclusionChecker(
            explore(full), premises_of_spec(full), mapping=theorem.mapping,
            target_universe=goal.guarantee_spec.universe)
        assert checker.check(goal.guarantee_spec.formula()).ok
        assert len(checker.target._enabled) > 1000
        assert len({compiled for compiled, _ in checker.target._enabled}) == 1
