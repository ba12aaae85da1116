"""Brute-force semantic checking of A/G implications over behavior universes.

The Composition Theorem exists because checking
``⋀_j (E_j ⊳ M_j) ⇒ (E ⊳ M)`` *directly* means quantifying over **all**
behaviors of the open universe -- not just the behaviors of any particular
transition system, since an open system's environment can do anything.

This module implements that direct check anyway, by enumerating every
lasso over the full state universe up to a stem/loop bound.  Two uses:

* **validating the theorem**: on tiny instances (the paper's Figure 1
  examples fit), the brute-force verdict must agree with the engine's --
  and for the liveness variant it produces the exact "both processes leave
  c and d unchanged" counterexample the paper describes;
* **the ABL-DIRECT ablation** (DESIGN.md): measuring how quickly the
  direct check explodes compared to the theorem route is the quantitative
  content of the paper's closing claim that the theorem "makes reasoning
  about open systems almost as easy as reasoning about complete ones".

The check is exact for the enumerated behaviors and bounded-complete
overall: a "verified" verdict means *no counterexample with stem ≤
max_stem and loop ≤ max_loop*.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..checker.results import CheckResult, Counterexample
from ..kernel.action import ActionPlans
from ..kernel.behavior import all_lassos
from ..kernel.state import Universe
from ..temporal.formulas import TemporalFormula, to_tf
from ..temporal.semantics import EvalContext


def brute_force_implication(
    premises: Sequence[object],
    conclusion: object,
    universe: Universe,
    max_stem: int = 2,
    max_loop: int = 2,
    name: str = "brute-force ⇒",
    max_behaviors: Optional[int] = None,
) -> CheckResult:
    """Check ``⋀ premises ⇒ conclusion`` over every lasso of the universe.

    Returns a failing :class:`CheckResult` carrying the first
    counterexample lasso found, or a passing one with the number of
    behaviors examined in ``stats["behaviors"]``.
    """
    premise_tfs: List[TemporalFormula] = [to_tf(p) for p in premises]
    conclusion_tf = to_tf(conclusion)
    states = list(universe.states())
    examined = 0
    actions = ActionPlans()  # ENABLED plans: built once, not per lasso
    for lasso in all_lassos(states, max_stem, max_loop):
        examined += 1
        if max_behaviors is not None and examined > max_behaviors:
            return CheckResult(
                name,
                ok=True,
                stats={"behaviors": examined - 1, "states": len(states)},
                notes=[f"stopped early at max_behaviors={max_behaviors}"],
            )
        ctx = EvalContext(lasso, universe, actions=actions)
        if not all(ctx.eval(tf, 0) for tf in premise_tfs):
            continue
        if not ctx.eval(conclusion_tf, 0):
            return CheckResult(
                name,
                ok=False,
                counterexample=Counterexample(
                    lasso,
                    "behavior satisfies every premise but not the conclusion",
                ),
                stats={"behaviors": examined, "states": len(states)},
            )
    return CheckResult(
        name,
        ok=True,
        stats={"behaviors": examined, "states": len(states)},
        notes=[f"bounded-complete up to stem={max_stem}, loop={max_loop}"],
    )


def brute_force_equivalence(
    lhs: object,
    rhs: object,
    universe: Universe,
    max_stem: int = 2,
    max_loop: int = 2,
    name: str = "brute-force ⇔",
) -> CheckResult:
    """Check that two formulas agree on every lasso of the universe."""
    lhs_tf, rhs_tf = to_tf(lhs), to_tf(rhs)
    states = list(universe.states())
    examined = 0
    actions = ActionPlans()  # ENABLED plans: built once, not per lasso
    for lasso in all_lassos(states, max_stem, max_loop):
        examined += 1
        ctx = EvalContext(lasso, universe, actions=actions)
        left, right = ctx.eval(lhs_tf, 0), ctx.eval(rhs_tf, 0)
        if left != right:
            return CheckResult(
                name,
                ok=False,
                counterexample=Counterexample(
                    lasso, f"lhs={left} but rhs={right}"
                ),
                stats={"behaviors": examined},
            )
    return CheckResult(name, ok=True, stats={"behaviors": examined})


def behavior_count(universe: Universe, max_stem: int, max_loop: int) -> int:
    """Number of lassos the brute-force check enumerates (closed form)."""
    n = universe.state_count()
    total = 0
    for stem in range(0, max_stem + 1):
        for loop in range(1, max_loop + 1):
            total += n ** (stem + loop)
    return total
