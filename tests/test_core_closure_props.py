"""Unit tests for syntactic closure (Propositions 1-2) and the proposition
checkers (Propositions 3-4)."""

import pytest

from repro.core import (
    ClosureHypothesisError,
    DisjointSpec,
    closure_formula,
    closure_of_component,
    closure_of_spec,
    is_canonical_safety,
    proposition1,
    proposition2,
    proposition3,
    proposition4,
    validate_guarantee_identity,
    validate_proposition1,
    validate_proposition4,
)
from repro.kernel import And, BIT, Eq, Universe, Var, all_lassos, interval
from repro.spec import Component, Spec, weak_fairness
from repro.temporal import ActionBox, Eventually, Hide, StatePred, TAnd, WF

from tests.conftest import counter_spec

x, y = Var("x"), Var("y")


class TestClosureOfSpec:
    def test_drops_fairness(self):
        closed = closure_of_spec(counter_spec())
        assert not closed.fairness

    def test_strict_checks_hypothesis(self):
        alien = Eq(x.prime(), 2)
        spec = Spec("s", Eq(x, 0), Eq(x.prime(), x), ("x",),
                    Universe({"x": interval(0, 2)}),
                    [weak_fairness(("x",), alien)])
        with pytest.raises(ClosureHypothesisError):
            closure_of_spec(spec)
        assert not closure_of_spec(spec, strict=False).fairness

    def test_component_closure_keeps_hiding(self):
        comp = Component("c", outputs=("x",), internals=("h",), inputs=(),
                         init=And(Eq(x, 0), Eq(Var("h"), 0)),
                         next_action=And(Eq(x.prime(), x),
                                         Eq(Var("h").prime(), Var("h"))),
                         universe=Universe({"x": BIT, "h": BIT}),
                         fairness=[weak_fairness(("x", "h"),
                                                 And(Eq(x.prime(), x),
                                                     Eq(Var("h").prime(),
                                                        Var("h"))))])
        closed = closure_of_component(comp)
        assert isinstance(closed, Hide)
        kinds = {type(p).__name__ for p in closed.body.parts}
        assert "WF" not in kinds


class TestClosureFormula:
    def test_safety_nodes_fixed(self):
        pred = StatePred(Eq(x, 0))
        assert closure_formula(pred) is pred
        box = ActionBox(Eq(x.prime(), x), ("x",))
        assert closure_formula(box) is box

    def test_conjunction_drops_fairness(self):
        spec = counter_spec()
        closed = closure_formula(spec.formula())
        kinds = [type(p).__name__ for p in closed.parts]
        assert "WF" not in kinds

    def test_bare_fairness_closes_to_true(self):
        closed = closure_formula(WF(("x",), Eq(x.prime(), x + 1)))
        assert isinstance(closed, StatePred)

    def test_hide_commutes(self):
        spec = counter_spec()
        hidden = Hide({"x": interval(0, 2)}, spec.formula())
        closed = closure_formula(hidden)
        assert isinstance(closed, Hide)

    def test_strict_rejects_unknown(self):
        with pytest.raises(ClosureHypothesisError):
            closure_formula(Eventually(StatePred(Eq(x, 0))))

    def test_nonstrict_wraps_semantically(self):
        from repro.core import Closure

        closed = closure_formula(Eventually(StatePred(Eq(x, 0))), strict=False)
        assert isinstance(closed, Closure)

    def test_is_canonical_safety(self):
        spec = counter_spec()
        assert is_canonical_safety(spec.safety_formula())
        assert not is_canonical_safety(spec.formula())
        assert is_canonical_safety(Hide({"x": interval(0, 2)},
                                        spec.safety_formula()))


class TestProposition1:
    def test_structural_pass(self):
        closed, report = proposition1(counter_spec())
        assert report.ok
        assert not closed.fairness

    def test_semantic_fallback(self):
        # fairness action is a *strengthening* of N, not a disjunct:
        # structurally unknown, semantically a subaction
        step = Eq(x.prime(), (x + 1) % 3)
        strengthened = And(Eq(x, 0), Eq(x.prime(), 1))
        universe = Universe({"x": interval(0, 2)})
        spec = Spec("s", Eq(x, 0), step, ("x",), universe,
                    [weak_fairness(("x",), strengthened)])
        _, report = proposition1(spec)
        assert not report.ok
        _, report = proposition1(spec, semantic_states=universe.states())
        assert report.ok

    def test_semantic_fallback_detects_violation(self):
        step = Eq(x.prime(), (x + 1) % 3)
        alien = Eq(x.prime(), x)  # stutter is NOT an N step here
        universe = Universe({"x": interval(0, 2)})
        spec = Spec("s", Eq(x, 0), step, ("x",), universe,
                    [weak_fairness(("x",), alien)])
        _, report = proposition1(spec, semantic_states=universe.states())
        assert not report.ok

    def test_empirical_validation(self):
        spec = counter_spec()
        states = list(spec.universe.states())
        lassos = list(all_lassos(states, max_stem=1, max_loop=2))
        assert validate_proposition1(spec, lassos) == []


class TestProposition2:
    def test_private_internals_pass(self):
        report = proposition2(
            [("A", ("h1",), {"x"}), ("B", ("h2",), {"y"})],
            ("goal", ("h",), {"x", "y"}),
        )
        assert report.ok

    def test_internal_in_target_fails(self):
        report = proposition2(
            [("A", ("h",), {"x"})],
            ("goal", (), {"x", "h"}),
        )
        assert not report.ok

    def test_internal_shared_between_components_fails(self):
        report = proposition2(
            [("A", ("h",), {"x"}), ("B", (), {"h", "y"})],
            ("goal", (), {"x", "y"}),
        )
        assert not report.ok


class TestProposition3Check:
    def test_vars_covered(self):
        formula = TAnd(StatePred(Eq(x, 0)), ActionBox(Eq(x.prime(), 0), ("x",)))
        assert proposition3(formula, ("x", "y")).ok

    def test_missing_vars_flagged(self):
        formula = StatePred(And(Eq(x, 0), Eq(y, 0)))
        report = proposition3(formula, ("x",))
        assert not report.ok
        assert "y" in report.details[0]


class TestProposition4Check:
    def test_separation_via_disjoint(self):
        disjoint = DisjointSpec([("a", "b"), ("c", "d")])
        assert proposition4(("a", "b"), ("c", "d"), disjoint).ok

    def test_unseparated_pair_flagged(self):
        disjoint = DisjointSpec([("a",), ("c",)])
        report = proposition4(("a", "b"), ("c",), disjoint)
        assert not report.ok

    def test_initial_disjunction_checked(self):
        from tests.conftest import st

        disjoint = DisjointSpec([("a",), ("c",)])
        a = Var("a")
        report = proposition4(
            ("a",), ("c",), disjoint,
            init_disjunction_states=[st(a=0, c=1)],
            env_init=Eq(a, 0),
        )
        assert report.ok
        report = proposition4(
            ("a",), ("c",), disjoint,
            init_disjunction_states=[st(a=1, c=1)],
            env_init=Eq(a, 0),
        )
        assert not report.ok

    def test_init_states_without_predicates_rejected(self):
        disjoint = DisjointSpec([("a",), ("c",)])
        with pytest.raises(ValueError):
            proposition4(("a",), ("c",), disjoint, init_disjunction_states=[])

    def test_empirical_validation(self):
        """Prop 4's conclusion over every small lasso of a 2-var universe."""
        universe = Universe({"e": BIT, "m": BIT})
        e_var, m_var = Var("e"), Var("m")
        env_closure = TAnd(StatePred(Eq(e_var, 0)),
                           ActionBox(Eq(e_var.prime(), 0), ("e",)))
        sys_closure = TAnd(StatePred(Eq(m_var, 0)),
                           ActionBox(Eq(m_var.prime(), 0), ("m",)))
        disjoint = DisjointSpec([("e",), ("m",)])
        states = list(universe.states())
        lassos = list(all_lassos(states, max_stem=1, max_loop=2))
        problems = validate_proposition4(
            env_closure, sys_closure,
            StatePred(Eq(e_var, 0)), StatePred(Eq(m_var, 0)),
            disjoint, lassos, universe)
        assert problems == []


class TestGuaranteeIdentityValidator:
    def test_identity_over_universe(self):
        universe = Universe({"e": BIT, "m": BIT})
        e_var, m_var = Var("e"), Var("m")
        env = TAnd(StatePred(Eq(e_var, 0)),
                   ActionBox(Eq(e_var.prime(), 0), ("e",)))
        sys_f = TAnd(StatePred(Eq(m_var, 0)),
                     ActionBox(Eq(m_var.prime(), 0), ("m",)))
        states = list(universe.states())
        lassos = list(all_lassos(states, max_stem=1, max_loop=2))
        assert validate_guarantee_identity(env, sys_f, lassos, universe) == []
