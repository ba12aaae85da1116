"""Exact evaluation of temporal formulas on lasso behaviors.

An :class:`EvalContext` binds a formula-evaluation session to one lasso:
it memoises subformula values per canonical position, caches ``ENABLED``
computations (needed by ``WF``/``SF``), and performs the witness search for
``∃`` (:class:`~repro.temporal.formulas.Hide`).

The public entry point is :func:`holds`::

    holds(spec_formula, lasso, universe=spec.universe)

Evaluation on a lasso is *exact* for every operator: a lasso denotes one
concrete infinite behavior, and each operator's truth value on an
ultimately periodic behavior is computable (fairness reduces to properties
of the loop).  The only approximation in this module is the bounded witness
search for ``∃`` -- a witness whose period exceeds ``max_unroll`` copies of
the visible loop, or beyond ``max_witness_candidates`` assignments, is
reported via :class:`WitnessSearchExhausted` rather than silently missed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..kernel.behavior import Lasso
from ..kernel.expr import Expr
from ..kernel.state import State, Universe
from ..kernel.action import ActionPlans
from .formulas import Hide, TemporalFormula, to_tf


class WitnessSearchExhausted(Exception):
    """The bounded search for a hidden-variable witness hit its limits
    without either finding a witness or exhausting the space."""


class EvalContext:
    """Evaluation session for one formula family over one lasso."""

    def __init__(
        self,
        lasso: Lasso,
        universe: Optional[Universe] = None,
        max_unroll: int = 2,
        max_witness_candidates: int = 500_000,
        actions: Optional[ActionPlans] = None,
    ):
        self.lasso = lasso
        self.universe = universe
        self.max_unroll = max_unroll
        self.max_witness_candidates = max_witness_candidates
        # memo keys use id(); every cached formula is pinned (once) in
        # _formulas and every action in `actions`, so a garbage-collected
        # object's id cannot be recycled by a new one and silently alias
        # its cache entry.  A caller evaluating the same formulas on many
        # lassos passes one `actions` so ENABLED plans are built once.
        self._memo: Dict[Tuple[int, int], bool] = {}
        self._formulas: Dict[int, TemporalFormula] = {}
        self.actions = ActionPlans() if actions is None else actions
        self._enabled_cache: Dict[Tuple[int, State], bool] = {}

    # -- formula evaluation -------------------------------------------------

    def eval(self, formula: TemporalFormula, pos: int) -> bool:
        key = (id(formula), pos)
        cached = self._memo.get(key)
        if cached is None:
            cached = formula.eval_at(self, pos)
            self._memo[key] = cached
            self._formulas[id(formula)] = formula
        return cached

    # -- ENABLED ------------------------------------------------------------

    def enabled(self, action: Expr, state: State) -> bool:
        if self.universe is None:
            raise ValueError(
                "evaluating WF/SF requires a Universe (for ENABLED); "
                "pass universe= to holds()/EvalContext"
            )
        key = (id(action), state)
        cached = self._enabled_cache.get(key)
        if cached is None:
            plan = self.actions.plan(action, self.universe)
            cached = self._enabled_cache[key] = plan.enabled(state)
        return cached

    # -- witness search for Hide ---------------------------------------------

    def search_witness(self, hide: Hide) -> bool:
        """Does some assignment of hidden-variable value sequences make the
        body true?

        Tries lassos with the loop unrolled 1..max_unroll times, assigning
        one value per hidden variable per canonical position.  Exact up to
        those bounds; raises :class:`WitnessSearchExhausted` if the bounded
        space was cut short by ``max_witness_candidates``.
        """
        names = sorted(hide.bindings)
        domains = [list(hide.bindings[name].values()) for name in names]
        inner_universe = self._inner_universe(hide)
        budget = self.max_witness_candidates
        truncated = False

        for copies in range(1, self.max_unroll + 1):
            base = self.lasso.unroll(copies)
            positions = base.length
            per_position = list(itertools.product(*domains))
            total = len(per_position) ** positions
            if total > budget:
                truncated = True
                total = budget
            count = 0
            for assignment in itertools.product(per_position, repeat=positions):
                count += 1
                if count > total:
                    break
                states = [
                    base.states[i].update(dict(zip(names, assignment[i])))
                    for i in range(positions)
                ]
                candidate = Lasso(states, base.loop_start)
                inner = EvalContext(
                    candidate,
                    inner_universe,
                    self.max_unroll,
                    self.max_witness_candidates,
                    self.actions,
                )
                if inner.eval(hide.body, 0):
                    return True
            budget -= count

        if truncated:
            raise WitnessSearchExhausted(
                f"witness search for {hide!r} exceeded "
                f"{self.max_witness_candidates} candidates"
            )
        return False

    def _inner_universe(self, hide: Hide) -> Optional[Universe]:
        if self.universe is None:
            return Universe(hide.bindings)
        return self.universe.merge(Universe(hide.bindings))


def holds(
    formula: object,
    lasso: Lasso,
    universe: Optional[Universe] = None,
    max_unroll: int = 2,
    max_witness_candidates: int = 500_000,
) -> bool:
    """Truth of *formula* on the infinite behavior denoted by *lasso*."""
    ctx = EvalContext(lasso, universe, max_unroll, max_witness_candidates)
    return ctx.eval(to_tf(formula), 0)


def check_implication_on(
    premises: object,
    conclusion: object,
    lasso: Lasso,
    universe: Optional[Universe] = None,
) -> bool:
    """``premises ⇒ conclusion`` on one lasso (used to validate candidate
    counterexamples produced by the graph-based liveness checker)."""
    ctx = EvalContext(lasso, universe)
    return (not ctx.eval(to_tf(premises), 0)) or ctx.eval(to_tf(conclusion), 0)
