"""Propositions 1-4 of the paper, as executable procedures.

Each proposition is used in two distinct ways in this repository:

1. **As a reduction rule inside the Composition Theorem engine** -- the
   functions here check the proposition's *hypotheses* for concrete
   specifications, so the engine may soundly apply the conclusion
   (e.g. compute a closure syntactically, or replace a ``+v`` obligation
   by an orthogonality argument).  Each check returns a report that goes
   into the proof certificate.

2. **As an empirically validated theorem** -- ``validate_*`` functions
   test the proposition's conclusion against the exact lasso semantics on
   supplied behaviors.  The test suite and the PROP1-4 benchmark drive
   these with both hand-built and randomly generated instances.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..kernel.action import ActionPlans, compile_action, holds_on_step
from ..kernel.behavior import Lasso
from ..kernel.expr import Expr
from ..kernel.state import State, Universe
from ..spec import Component, Spec
from ..temporal.formulas import TemporalFormula, to_tf
from ..temporal.semantics import EvalContext
from .disjoint import DisjointSpec
from .operators import Closure, Guarantees, Orthogonal, Plus


class PropositionReport:
    """Outcome of checking a proposition's hypotheses."""

    __slots__ = ("proposition", "ok", "details")

    def __init__(self, proposition: str, ok: bool, details: Sequence[str] = ()):
        self.proposition = proposition
        self.ok = ok
        self.details = list(details)

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"PropositionReport({self.proposition!r}, ok={self.ok})"

    def render(self) -> str:
        head = f"{self.proposition}: {'applicable' if self.ok else 'NOT applicable'}"
        return "\n".join([head] + [f"  - {line}" for line in self.details])


# ---------------------------------------------------------------------------
# Proposition 1: C(Init ∧ □[N]_v ∧ L) = Init ∧ □[N]_v
# ---------------------------------------------------------------------------

def check_subaction(
    action: Expr,
    next_action: Expr,
    universe: Universe,
    states: Iterable[State],
) -> List[str]:
    """Semantically check ``A ⇒ N`` over the given states: every A-successor
    pair must be an N step.  Returns problems (empty = verified)."""
    problems: List[str] = []
    plan = compile_action(action).plan(universe)
    for state in states:
        for succ in plan.successors(state):
            if not holds_on_step(next_action, state, succ):
                problems.append(
                    f"A step {state!r} -> {succ!r} is not an N step"
                )
                if len(problems) >= 3:
                    problems.append("... (further violations suppressed)")
                    return problems
    return problems


def proposition1(
    spec: Spec,
    semantic_states: Optional[Iterable[State]] = None,
) -> Tuple[Spec, PropositionReport]:
    """Apply Proposition 1: returns ``C(spec)`` (the spec without fairness)
    plus the hypothesis-check report.

    The hypothesis -- each fairness action implies ``N`` -- is checked
    structurally (the action is a disjunct of N); if that fails and
    *semantic_states* is given, an exhaustive semantic subaction check over
    those states is attempted instead.
    """
    details: List[str] = []
    problems = spec.validate_fairness_subactions()
    if not problems:
        details.append(
            f"each of the {len(spec.fairness)} fairness action(s) is a "
            "disjunct of N (structural check)"
        )
        return spec.without_fairness(), PropositionReport("Proposition 1", True, details)
    if semantic_states is not None:
        for fair in spec.fairness:
            bad = check_subaction(fair.action, spec.next_action, spec.universe,
                                  semantic_states)
            if bad:
                details.extend(bad)
                return spec.without_fairness(), PropositionReport(
                    "Proposition 1", False, details
                )
        details.append("fairness actions imply N (semantic check)")
        return spec.without_fairness(), PropositionReport("Proposition 1", True, details)
    details.extend(problems)
    return spec.without_fairness(), PropositionReport("Proposition 1", False, details)


def validate_proposition1(spec: Spec, lassos: Iterable[Lasso]) -> List[str]:
    """Empirically compare ``C(formula(spec))`` (semantic closure) with
    ``Init ∧ □[N]_v`` on the given behaviors.  Returns mismatches."""
    semantic = Closure(spec.formula())
    syntactic = spec.safety_formula()
    mismatches = []
    actions = ActionPlans()
    for lasso in lassos:
        ctx = EvalContext(lasso, spec.universe, actions=actions)
        lhs, rhs = ctx.eval(semantic, 0), ctx.eval(syntactic, 0)
        if lhs != rhs:
            mismatches.append(
                f"C-semantic={lhs} but Init∧□[N]_v={rhs} on {lasso!r}"
            )
    return mismatches


# ---------------------------------------------------------------------------
# Proposition 2: pushing closures under ∃
# ---------------------------------------------------------------------------

def proposition2(
    parts: Sequence[Tuple[str, Sequence[str], Iterable[str]]],
    target: Tuple[str, Sequence[str], Iterable[str]],
) -> PropositionReport:
    """Check Proposition 2's hypothesis for the standard use: to prove
    ``⋀ C(∃x_i : M_i) ⇒ C(∃x : M)`` it suffices to prove
    ``⋀ C(M_i) ⇒ ∃x : C(M)``, provided each ``x_i`` occurs neither in the
    target nor in any other component.

    Each part (and the target) is a triple
    ``(name, internal_variables, visible_variables)``.
    """
    details: List[str] = []
    ok = True
    target_name, target_internals, target_visible = target
    target_vars = set(target_visible) | set(target_internals)
    entries = [(name, set(internals), set(internals) | set(visible))
               for name, internals, visible in parts]
    for i, (name, internal, _all_vars) in enumerate(entries):
        if internal & target_vars:
            ok = False
            details.append(
                f"internal variables {sorted(internal & target_vars)} of "
                f"{name!r} occur in the target {target_name!r}"
            )
        for j, (other_name, _oi, other_vars) in enumerate(entries):
            if i == j:
                continue
            clash = internal & other_vars
            if clash:
                ok = False
                details.append(
                    f"internal variables {sorted(clash)} of {name!r} "
                    f"occur in component {other_name!r}"
                )
    if ok:
        details.append(
            "hidden variables of each component are private to it "
            "(do not occur in the target or in other components)"
        )
    return PropositionReport("Proposition 2", ok, details)


def proposition2_of_components(
    components: Sequence[Component],
    target: Component,
) -> PropositionReport:
    """Component-level convenience wrapper around :func:`proposition2`."""
    parts = [(c.name, c.internals, c.spec.formula().vars()) for c in components]
    return proposition2(
        parts, (target.name, target.internals, target.spec.formula().vars())
    )


# ---------------------------------------------------------------------------
# Proposition 3: eliminating +v via orthogonality
# ---------------------------------------------------------------------------

def proposition3(
    sys_formula: TemporalFormula,
    plus_sub: Sequence[str],
) -> PropositionReport:
    """Check Proposition 3's variable hypothesis: the tuple ``v`` of the
    ``+v`` obligation must contain every variable free in ``M``.

    (The other hypotheses -- that ``E``, ``M``, ``R`` are safety properties
    and that ``E ∧ R ⇒ M`` and ``R ⇒ E ⊥ M`` hold -- are discharged as
    separate obligations by the engine.)"""
    missing = sorted(to_tf(sys_formula).vars() - set(plus_sub))
    if missing:
        return PropositionReport(
            "Proposition 3",
            False,
            [f"variables {missing} of M are not in the +v tuple {tuple(plus_sub)}"],
        )
    return PropositionReport(
        "Proposition 3",
        True,
        [f"all free variables of M lie in the +v tuple {tuple(plus_sub)}"],
    )


def validate_proposition3(
    env: TemporalFormula,
    sys_formula: TemporalFormula,
    rely: TemporalFormula,
    plus_sub: Sequence[str],
    lassos: Iterable[Lasso],
    universe: Universe,
) -> List[str]:
    """Empirically validate Proposition 3 over a behavior set.

    Proposition 3 is a *validity-level* rule: from ``⊨ E ∧ R ⇒ M`` and
    ``⊨ R ⇒ E ⊥ M`` conclude ``⊨ E+v ∧ R ⇒ M``.  The hypotheses must hold
    on **every** behavior before the conclusion is owed on any -- a
    per-behavior reading of the rule is simply false (a behavior can
    vacuously satisfy both hypotheses because ``E`` fails on it as a whole,
    while ``E+v`` still holds).  So this validator makes two passes:

    1. check both hypotheses on every supplied lasso; if either fails
       anywhere, report ``["hypotheses not valid over the sample: ..."]``
       -- the proposition is then not applicable, not refuted;
    2. otherwise check the conclusion on every lasso and report genuine
       counterexamples to the proposition (always empty, if the paper and
       this implementation are right).
    """
    env_tf, sys_tf, rely_tf = to_tf(env), to_tf(sys_formula), to_tf(rely)
    lasso_list = list(lassos)
    actions = ActionPlans()
    for behavior in lasso_list:
        ctx = EvalContext(behavior, universe, actions=actions)
        hyp1 = (not (ctx.eval(env_tf, 0) and ctx.eval(rely_tf, 0))) or \
            ctx.eval(sys_tf, 0)
        hyp2 = (not ctx.eval(rely_tf, 0)) or \
            ctx.eval(Orthogonal(env_tf, sys_tf), 0)
        if not (hyp1 and hyp2):
            return [
                "hypotheses not valid over the sample: "
                f"{'E ∧ R ⇒ M' if not hyp1 else 'R ⇒ E ⊥ M'} fails on "
                f"{behavior!r}"
            ]
    problems = []
    for behavior in lasso_list:
        ctx = EvalContext(behavior, universe, actions=actions)
        lhs = ctx.eval(Plus(env_tf, tuple(plus_sub)), 0) and ctx.eval(rely_tf, 0)
        if lhs and not ctx.eval(sys_tf, 0):
            problems.append(f"Proposition 3 conclusion fails on {behavior!r}")
    return problems


# ---------------------------------------------------------------------------
# Proposition 4: orthogonality of interleaving component specifications
# ---------------------------------------------------------------------------

def proposition4(
    env_owned: Sequence[str],
    sys_owned: Sequence[str],
    disjoint: DisjointSpec,
    init_disjunction_states: Optional[Iterable[State]] = None,
    env_init: Optional[Expr] = None,
    sys_init: Optional[Expr] = None,
) -> PropositionReport:
    """Check Proposition 4's hypotheses for concrete component interfaces.

    * ``Disjoint(e, m)`` must be implied by the provided interleaving
      condition: every pair (a ∈ e, b ∈ m) must be separated by some
      declared tuple pair;
    * the initial disjunction ``(∃x : Init_E) ∨ (∃y : Init_M)`` is checked
      on the supplied states (typically the product system's initial
      states, with hidden values supplied by the refinement mapping).
    """
    details: List[str] = []
    ok = True
    if disjoint.separates_tuples(env_owned, sys_owned):
        details.append(
            f"Disjoint(e, m) for e={tuple(env_owned)}, m={tuple(sys_owned)} "
            f"follows from {disjoint!r}"
        )
    else:
        ok = False
        bad = [
            (a, b)
            for a in env_owned
            for b in sys_owned
            if not disjoint.separates(a, b)
        ]
        details.append(
            f"Disjoint(e, m) NOT implied: unseparated pairs {bad[:5]}"
        )
    if init_disjunction_states is not None:
        if env_init is None and sys_init is None:
            raise ValueError("give env_init and/or sys_init to check the "
                             "initial disjunction")
        for state in init_disjunction_states:
            holds_env = bool(env_init.eval_state(state)) if env_init is not None else False
            holds_sys = bool(sys_init.eval_state(state)) if sys_init is not None else False
            if not (holds_env or holds_sys):
                ok = False
                details.append(
                    f"initial disjunction Init_E ∨ Init_M fails at {state!r}"
                )
                break
        else:
            details.append("initial disjunction Init_E ∨ Init_M holds at all "
                           "supplied initial states")
    return PropositionReport("Proposition 4", ok, details)


def validate_proposition4(
    env_closure: TemporalFormula,
    sys_closure: TemporalFormula,
    env_init: TemporalFormula,
    sys_init: TemporalFormula,
    disjoint: DisjointSpec,
    lassos: Iterable[Lasso],
    universe: Universe,
) -> List[str]:
    """Empirically validate Proposition 4's conclusion on behaviors:
    wherever the initial disjunction and the Disjoint condition hold, the
    closures must be orthogonal."""
    problems = []
    disjoint_tf = disjoint.formula()
    actions = ActionPlans()
    for lasso in lassos:
        ctx = EvalContext(lasso, universe, actions=actions)
        init_ok = ctx.eval(to_tf(env_init), 0) or ctx.eval(to_tf(sys_init), 0)
        if not init_ok or not ctx.eval(disjoint_tf, 0):
            continue
        if not ctx.eval(Orthogonal(env_closure, sys_closure), 0):
            problems.append(f"Proposition 4 conclusion fails on {lasso!r}")
    return problems


# ---------------------------------------------------------------------------
# Section 4.2's identity: (E ⊳ M) = (E −▷ M) ∧ (E ⊥ M)
# ---------------------------------------------------------------------------

def validate_guarantee_identity(
    env: TemporalFormula,
    sys_formula: TemporalFormula,
    lassos: Iterable[Lasso],
    universe: Universe,
) -> List[str]:
    """Check ``(E ⊳ M) = (E −▷ M) ∧ (E ⊥ M)`` on behaviors (section 4.2)."""
    from .operators import AsLongAs

    problems = []
    actions = ActionPlans()
    for lasso in lassos:
        ctx = EvalContext(lasso, universe, actions=actions)
        lhs = ctx.eval(Guarantees(env, sys_formula), 0)
        rhs = ctx.eval(AsLongAs(env, sys_formula), 0) and ctx.eval(
            Orthogonal(env, sys_formula), 0
        )
        if lhs != rhs:
            problems.append(
                f"identity fails on {lasso!r}: ⊳={lhs}, (−▷ ∧ ⊥)={rhs}"
            )
    return problems
