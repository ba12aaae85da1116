"""Unit tests for the lasso evaluation engine: Hide witness search,
memoisation, ENABLED caching."""

import pytest

from repro.kernel import And, Eq, Universe, Var, interval
from repro.temporal import (
    ActionBox,
    Always,
    EvalContext,
    Eventually,
    Hide,
    StatePred,
    TAnd,
    WitnessSearchExhausted,
    check_implication_on,
    holds,
)

from tests.conftest import bits

x, h = Var("x"), Var("h")
U = Universe({"x": interval(0, 2)})
HDOM = interval(0, 2)


class TestHideWitness:
    def test_simple_witness(self):
        formula = Hide({"h": HDOM}, Always(StatePred(Eq(h, x))))
        assert holds(formula, bits("x", [0, 1, 2], 0), U)

    def test_no_witness(self):
        formula = Hide({"h": HDOM},
                       TAnd(Always(StatePred(Eq(h, x))),
                            Always(StatePred(Eq(h, 0)))))
        assert not holds(formula, bits("x", [0, 1], 0), U)

    def test_witness_constrained_by_action(self):
        # h must count modulo 3 regardless of x
        step = Eq(Var("h", primed=True), (h + 1) % 3)
        formula = Hide({"h": HDOM},
                       TAnd(StatePred(Eq(h, 0)), ActionBox(step, ("h",))))
        assert holds(formula, bits("x", [0, 0, 0], 0), U)

    def test_witness_overrides_existing_value(self):
        # ∃x: x = 2 is true even on a lasso where the visible x is 0
        formula = Hide({"x": HDOM}, StatePred(Eq(x, 2)))
        assert holds(formula, bits("x", [0], 0), U)

    def test_witness_needs_unrolling(self):
        # visible loop has period 1 (x constant) but h must alternate 0,1:
        # only an unrolled copy of the loop admits the witness
        step = Eq(Var("h", primed=True), 1 - h)
        formula = Hide({"h": interval(0, 1)},
                       TAnd(StatePred(Eq(h, 0)),
                            ActionBox(And(step, Eq(Var("x", primed=True), x)),
                                      ("h",)),
                            Eventually(StatePred(Eq(h, 1)))))
        la = bits("x", [0], 0)
        assert holds(formula, la, U, max_unroll=2)
        assert not holds(formula, la, U, max_unroll=1)

    def test_multiple_hidden_vars(self):
        g = Var("g")
        formula = Hide({"h": HDOM, "g": HDOM},
                       Always(StatePred(And(Eq(h, x), Eq(g, x)))))
        assert holds(formula, bits("x", [1, 2], 0), U)

    def test_exhaustion_raises(self):
        formula = Hide({"h": HDOM}, Always(StatePred(Eq(h, 9))))
        la = bits("x", [0, 1, 2, 0, 1, 2], 0)
        with pytest.raises(WitnessSearchExhausted):
            holds(formula, la, U, max_witness_candidates=5)

    def test_nonzero_position_rejected(self):
        formula = Always(Hide({"h": HDOM}, StatePred(Eq(h, x))))
        with pytest.raises(NotImplementedError):
            holds(formula, bits("x", [0, 1], 0), U)

    def test_empty_bindings_rejected(self):
        with pytest.raises(ValueError):
            Hide({}, StatePred(Eq(x, 0)))


class TestEvalContext:
    def test_memoisation(self):
        la = bits("x", [0, 1, 2], 0)
        ctx = EvalContext(la, U)
        formula = Always(Eventually(StatePred(Eq(x, 2))))
        assert ctx.eval(formula, 0)
        assert (id(formula), 0) in ctx._memo

    def test_enabled_cache(self):
        from repro.temporal import WF

        la = bits("x", [0], 0)
        ctx = EvalContext(la, U)
        wf = WF(("x",), Eq(Var("x", primed=True), x + 1))
        ctx.eval(wf, 0)
        assert ctx._enabled_cache

    def test_pins_count_objects_not_queries(self):
        """The id()-keyed memos pin each formula and each action once,
        however many (formula, position) / (action, state) pairs miss."""
        from repro.temporal import WF

        la = bits("x", [0, 1, 2, 1], 0)
        ctx = EvalContext(la, U)
        wf = WF(("x",), Eq(Var("x", primed=True), x + 2))
        formula = TAnd(Always(Eventually(StatePred(Eq(x, 2)))), wf)
        assert ctx.eval(formula, 0)
        assert len(ctx._memo) > len(ctx._formulas) == 5
        assert len(ctx._enabled_cache) > len(ctx.actions) == 1


class TestCheckImplicationOn:
    def test_holds(self):
        la = bits("x", [0, 1], 0)
        premise = StatePred(Eq(x, 0))
        conclusion = Eventually(StatePred(Eq(x, 1)))
        assert check_implication_on(premise, conclusion, la, U)

    def test_fails(self):
        la = bits("x", [0], 0)
        premise = StatePred(Eq(x, 0))
        conclusion = Eventually(StatePred(Eq(x, 1)))
        assert not check_implication_on(premise, conclusion, la, U)

    def test_vacuous(self):
        la = bits("x", [1], 0)
        premise = StatePred(Eq(x, 0))
        conclusion = Eventually(StatePred(Eq(x, 2)))
        assert check_implication_on(premise, conclusion, la, U)
