"""Unit tests for the paper's operators: C, ⊳, −▷, +v, ⊥ (sections 2.4, 3, 4).

The scenarios are built from two canonical safety specs over one variable
each -- an "environment" spec constraining ``e`` and a "machine" spec
constraining ``m`` -- so the failure points of each can be dialled in
precisely by choosing the behavior.
"""

import pytest

from repro.core import AsLongAs, Closure, Guarantees, Orthogonal, Plus, guarantees
from repro.kernel import BIT, Eq, Universe, Var
from repro.temporal import ActionBox, Eventually, StatePred, TAnd, holds

from tests.conftest import lasso

e, m = Var("e"), Var("m")
U = Universe({"e": BIT, "m": BIT})

# E: e stays 0;  M: m stays 0  (canonical safety forms)
E = TAnd(StatePred(Eq(e, 0)), ActionBox(Eq(e.prime(), 0), ("e",)))
M = TAnd(StatePred(Eq(m, 0)), ActionBox(Eq(m.prime(), 0), ("m",)))


def both_zero_forever():
    return lasso([{"e": 0, "m": 0}], 0)


def e_breaks_first():
    # e flips at step 1, m flips later: fE = 2, fM = 3
    return lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}, {"e": 1, "m": 1}], 2)


def m_breaks_first():
    return lasso([{"e": 0, "m": 0}, {"e": 0, "m": 1}, {"e": 1, "m": 1}], 2)


def both_break_together():
    return lasso([{"e": 0, "m": 0}, {"e": 1, "m": 1}], 1)


def m_breaks_never():
    return lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}], 1)


class TestClosure:
    def test_closure_of_safety_is_itself(self):
        assert holds(Closure(E), both_zero_forever(), U)
        assert not holds(Closure(E), e_breaks_first(), U)

    def test_closure_of_liveness_is_true(self):
        live = Eventually(StatePred(Eq(e, 1)))
        assert holds(Closure(live), both_zero_forever(), U)
        assert not holds(live, both_zero_forever(), U)

    def test_closure_of_spec_with_fairness(self):
        """C(Init ∧ □[N]_v ∧ WF) = Init ∧ □[N]_v on behaviors
        (Proposition 1, semantically)."""
        from repro.spec import weak_fairness, Spec

        spec = Spec("e0", Eq(e, 0), Eq(e.prime(), 0), ("e",),
                    Universe({"e": BIT}),
                    [weak_fairness(("e",), Eq(e.prime(), 0))])
        stutter = lasso([{"e": 0, "m": 0}], 0)
        assert holds(Closure(spec.formula()), stutter, U)

    def test_finite_sat_of_closure(self):
        from repro.kernel import FiniteBehavior, State
        from repro.temporal import prefix_sat

        good = FiniteBehavior([State({"e": 0, "m": 0})])
        bad = FiniteBehavior([State({"e": 0, "m": 0}), State({"e": 1, "m": 0})])
        assert prefix_sat(Closure(E), good)
        assert not prefix_sat(Closure(E), bad)


class TestGuarantees:
    """E ⊳ M: M must hold one step longer than E."""

    def test_holds_when_both_hold(self):
        assert holds(Guarantees(E, M), both_zero_forever(), U)

    def test_holds_when_env_breaks_strictly_first(self):
        assert holds(Guarantees(E, M), e_breaks_first(), U)

    def test_fails_when_machine_breaks_first(self):
        assert not holds(Guarantees(E, M), m_breaks_first(), U)

    def test_fails_on_simultaneous_break(self):
        """The crucial difference from −▷: breaking in the same step as the
        environment violates ⊳."""
        assert not holds(Guarantees(E, M), both_break_together(), U)

    def test_holds_when_machine_never_breaks(self):
        assert holds(Guarantees(E, M), m_breaks_never(), U)

    def test_full_implication_matters(self):
        """With liveness in M, the prefix condition alone is not enough."""
        live_m = TAnd(M, Eventually(StatePred(Eq(e, 1))))
        assert not holds(Guarantees(E, live_m), both_zero_forever(), U)

    def test_guarantees_helper(self):
        assert isinstance(guarantees(E, M), Guarantees)

    def test_position_zero_only(self):
        from repro.temporal import EvalContext

        ctx = EvalContext(both_zero_forever(), U)
        with pytest.raises(NotImplementedError):
            Guarantees(E, M).eval_at(ctx, 1)

    def test_rename(self):
        renamed = Guarantees(E, M).rename({"e": "a", "m": "b"})
        la = lasso([{"a": 0, "b": 0}], 0)
        assert holds(renamed, la, Universe({"a": BIT, "b": BIT}))


class TestAsLongAs:
    """E −▷ M: M holds at least as long as E (simultaneous break allowed)."""

    def test_simultaneous_break_allowed(self):
        assert holds(AsLongAs(E, M), both_break_together(), U)

    def test_machine_first_still_fails(self):
        assert not holds(AsLongAs(E, M), m_breaks_first(), U)

    def test_env_first_fine(self):
        assert holds(AsLongAs(E, M), e_breaks_first(), U)


class TestOrthogonal:
    def test_simultaneous_break_not_orthogonal(self):
        assert not holds(Orthogonal(E, M), both_break_together(), U)

    def test_staggered_breaks_orthogonal(self):
        assert holds(Orthogonal(E, M), e_breaks_first(), U)
        assert holds(Orthogonal(E, M), m_breaks_first(), U)

    def test_no_breaks_orthogonal(self):
        assert holds(Orthogonal(E, M), both_zero_forever(), U)


class TestGuaranteeIdentity:
    """Section 4.2: (E ⊳ M) = (E −▷ M) ∧ (E ⊥ M), on assorted behaviors."""

    @pytest.mark.parametrize("behavior", [
        both_zero_forever(), e_breaks_first(), m_breaks_first(),
        both_break_together(), m_breaks_never(),
    ])
    def test_identity(self, behavior):
        lhs = holds(Guarantees(E, M), behavior, U)
        rhs = holds(AsLongAs(E, M), behavior, U) and \
            holds(Orthogonal(E, M), behavior, U)
        assert lhs == rhs


class TestPlus:
    def test_holds_when_env_holds(self):
        assert holds(Plus(E, ("e", "m")), both_zero_forever(), U)

    def test_violation_with_changes_after(self):
        # E fails at prefix 2; m keeps changing forever afterwards
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0},
                    {"e": 1, "m": 1}, {"e": 1, "m": 0}], 2)
        assert not holds(Plus(E, ("e", "m")), la, U)

    def test_holds_when_frozen_before_failure(self):
        # E fails at prefix 2 (e flips at step 1); everything frozen from
        # index 1 onwards -- freeze index 1 < fE = 2
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}], 1)
        assert holds(Plus(E, ("e", "m")), la, U)

    def test_fails_when_freeze_too_late(self):
        # E fails at prefix 2, but m still changes at step 2: freeze index 2
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}, {"e": 1, "m": 1}], 2)
        assert not holds(Plus(E, ("e", "m")), la, U)

    def test_sub_restricted_to_m(self):
        # with v = (m) only, m frozen from the start: E+v holds even though
        # e keeps changing
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}, {"e": 0, "m": 0}], 1)
        assert holds(Plus(E, ("m",)), la, U)

    def test_empty_sub_rejected(self):
        with pytest.raises(ValueError):
            Plus(E, ())

    def test_plus_of_true_is_true(self):
        true_env = StatePred(True)
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 1}], 1)
        assert holds(Plus(true_env, ("e", "m")), la, U)


class TestProposition3Semantics:
    """Proposition 3, validated empirically on a genuine instance.

    ``R`` says: ``m`` starts at 0 and changes only when ``e`` has already
    left 0.  Then ``E ∧ R ⇒ M`` is valid (if e never leaves 0, m never
    moves) and ``R ⇒ E ⊥ M`` is valid (a step breaking both would change m
    while e is still 0, which R forbids) -- so Proposition 3 owes us
    ``E+v ∧ R ⇒ M`` on every behavior.
    """

    def rely(self):
        from repro.kernel import Not, Or
        from repro.kernel.action import unchanged

        return TAnd(
            StatePred(Eq(m, 0)),
            ActionBox(Or(unchanged(("m",)), Not(Eq(e, 0))), ("m",)),
        )

    def test_instance_is_nontrivial(self):
        # R alone does not imply M: m may move once e has broken out
        la = lasso([{"e": 0, "m": 0}, {"e": 1, "m": 0}, {"e": 1, "m": 1}], 2)
        assert holds(self.rely(), la, U)
        assert not holds(M, la, U)

    def test_validated_over_all_small_lassos(self):
        from repro.core import validate_proposition3
        from repro.kernel import all_lassos

        states = list(U.states())
        lassos = list(all_lassos(states, max_stem=2, max_loop=1))
        problems = validate_proposition3(E, M, self.rely(), ("e", "m"),
                                         lassos, U)
        assert problems == []

    def test_invalid_hypotheses_reported_not_refuted(self):
        from repro.core import validate_proposition3
        from repro.kernel import Not, Or, all_lassos
        from repro.kernel.action import unchanged

        states = list(U.states())
        lassos = list(all_lassos(states, max_stem=1, max_loop=1))
        problems = validate_proposition3(E, M, StatePred(True), ("e", "m"),
                                         lassos, U)
        assert problems and "hypotheses not valid" in problems[0]
        # R lets m move in the step that moves e: E ∧ R ⇒ M stays valid,
        # but R ⇒ E ⊥ M fails on the step breaking both
        lockstep = TAnd(StatePred(Eq(m, 0)), ActionBox(
            Or(unchanged(("m",)), Not(unchanged(("e",)))), ("m",)))
        lassos = list(all_lassos(states, max_stem=2, max_loop=1))
        problems = validate_proposition3(E, M, lockstep, ("e", "m"),
                                         lassos, U)
        assert problems and "R ⇒ E ⊥ M fails" in problems[0], problems
