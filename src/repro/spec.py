"""Canonical specifications and components (paper, section 2.2).

A component specification has the canonical form

    ``∃x : Init ∧ □[N]_v ∧ L``        with  ``v = <m, x>``

where ``m`` are the component's output variables, ``x`` its internal
variables, ``e`` its input variables, ``Init`` constrains ``m`` and ``x``,
``N`` describes the component's steps (implying ``e' = e`` in an
interleaving representation), and ``L`` is a conjunction of fairness
conditions ``WF_<m,x>(A)`` / ``SF_<m,x>(A)``.

This module provides:

* :class:`Fairness` -- one WF/SF conjunct;
* :class:`Spec` -- an *unhidden* canonical specification
  ``Init ∧ □[N]_v ∧ L`` (the paper's ``IQM``, ``QE``, ``ICQ``, ...);
* :class:`Component` -- a Spec plus its input/output/internal variable
  partition and the hiding of internals (the paper's ``QM = ∃q : IQM``);
* :func:`conjoin` -- parallel composition of Specs by conjunction, using
  ``□[N₁]_v₁ ∧ □[N₂]_v₂ = □[[N₁]_v₁ ∧ [N₂]_v₂]_{v₁∪v₂}``;
* :func:`spec_of_formula` -- pattern-match a temporal formula built from
  ``StatePred``/``ActionBox``/``WF``/``SF`` conjuncts back into a
  :class:`Spec` (used by the Composition Theorem engine to turn hypothesis
  left-hand sides into explorable transition systems).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from .kernel.expr import And, Const, Expr, to_expr
from .kernel.action import square
from .kernel.state import Universe
from .temporal.formulas import ActionBox, Always, Hide, SF, StatePred, TAnd, TemporalFormula, WF


class Fairness:
    """One fairness conjunct ``WF_sub(action)`` or ``SF_sub(action)``.

    For Proposition 1 (closure computation) to apply, ``action`` must imply
    the specification's next-state action ``N``; :meth:`Spec.validate`
    checks the common structural case (the action is one of N's disjuncts),
    and :mod:`repro.core.propositions` offers a semantic check.
    """

    __slots__ = ("kind", "sub", "action")

    WEAK = "WF"
    STRONG = "SF"

    def __init__(self, kind: str, sub: Sequence[str], action: object):
        if kind not in (self.WEAK, self.STRONG):
            raise ValueError(f"fairness kind must be 'WF' or 'SF', got {kind!r}")
        self.kind = kind
        self.sub: Tuple[str, ...] = tuple(sub)
        self.action = to_expr(action)

    def formula(self) -> TemporalFormula:
        cls = WF if self.kind == self.WEAK else SF
        return cls(self.sub, self.action)

    def rename(self, mapping: Mapping[str, str]) -> "Fairness":
        sub = tuple(mapping.get(name, name) for name in self.sub)
        from .kernel.expr import Var
        action = self.action.substitute({old: Var(new) for old, new in mapping.items()})
        return Fairness(self.kind, sub, action)

    def __repr__(self) -> str:
        return f"Fairness({self.kind}, sub={self.sub})"


def weak_fairness(sub: Sequence[str], action: object) -> Fairness:
    return Fairness(Fairness.WEAK, sub, action)


def strong_fairness(sub: Sequence[str], action: object) -> Fairness:
    return Fairness(Fairness.STRONG, sub, action)


class Spec:
    """An unhidden canonical specification ``Init ∧ □[N]_v ∧ L``.

    ``universe`` must declare every variable the formula mentions,
    including input variables read (but not written) by ``N``.
    """

    __slots__ = ("name", "init", "next_action", "sub", "fairness", "universe")

    def __init__(
        self,
        name: str,
        init: object,
        next_action: object,
        sub: Sequence[str],
        universe: Universe,
        fairness: Sequence[Fairness] = (),
    ):
        self.name = name
        self.init = to_expr(init)
        self.next_action = to_expr(next_action)
        self.sub: Tuple[str, ...] = tuple(sub)
        self.universe = universe
        self.fairness: Tuple[Fairness, ...] = tuple(fairness)
        if not self.sub:
            raise ValueError(f"spec {name!r} needs a nonempty subscript tuple v")
        if self.init.primed_vars():
            raise ValueError(f"Init of spec {name!r} contains primed variables")
        self._check_universe()

    def _check_universe(self) -> None:
        mentioned = (
            self.init.free_vars()
            | self.next_action.free_vars()
            | self.next_action.primed_vars()
            | frozenset(self.sub)
        )
        for fair in self.fairness:
            mentioned |= fair.action.free_vars() | fair.action.primed_vars()
            mentioned |= frozenset(fair.sub)
        missing = sorted(name for name in mentioned if name not in self.universe)
        if missing:
            raise ValueError(
                f"spec {self.name!r} mentions undeclared variables: {missing}"
            )

    # -- formulas ------------------------------------------------------------

    def safety_formula(self) -> TemporalFormula:
        """``Init ∧ □[N]_v`` -- by Proposition 1, the closure of the spec."""
        return TAnd(StatePred(self.init), ActionBox(self.next_action, self.sub))

    def liveness_formula(self) -> Optional[TemporalFormula]:
        if not self.fairness:
            return None
        return TAnd(*[fair.formula() for fair in self.fairness])

    def formula(self) -> TemporalFormula:
        parts: List[TemporalFormula] = [
            StatePred(self.init),
            ActionBox(self.next_action, self.sub),
        ]
        parts.extend(fair.formula() for fair in self.fairness)
        return TAnd(*parts)

    # -- transformation --------------------------------------------------------

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Spec":
        """Variable renaming, the paper's ``F[z/o, q1/q]``.

        The universe is renamed accordingly; renaming two variables to the
        same name is rejected.
        """
        from .kernel.expr import Var

        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError(f"renaming {mapping!r} is not injective")
        subst = {old: Var(new) for old, new in mapping.items()}
        new_domains = {
            mapping.get(var, var): self.universe.domain(var)
            for var in self.universe.variables
        }
        return Spec(
            name or f"{self.name}[{','.join(f'{v}/{k}' for k, v in mapping.items())}]",
            self.init.substitute(subst),
            self.next_action.substitute(subst),
            tuple(mapping.get(s, s) for s in self.sub),
            Universe(new_domains),
            [fair.rename(mapping) for fair in self.fairness],
        )

    def without_fairness(self, name: Optional[str] = None) -> "Spec":
        return Spec(name or f"C({self.name})", self.init, self.next_action,
                    self.sub, self.universe, ())

    def with_extra_universe(self, extra: Universe) -> "Spec":
        return Spec(self.name, self.init, self.next_action, self.sub,
                    self.universe.merge(extra), self.fairness)

    # -- validation -------------------------------------------------------------

    def validate_fairness_subactions(self) -> List[str]:
        """Check the structural hypothesis of Proposition 1: each fairness
        action should be one of N's disjuncts (or N itself).

        Returns a list of problems (empty = all good).  A semantic check is
        available in :func:`repro.core.propositions.check_subaction`.
        """
        from .kernel.expr import Or, structurally_equal

        disjuncts: List[Expr] = [self.next_action]
        if isinstance(self.next_action, Or):
            disjuncts.extend(self.next_action.args)
        problems = []
        for fair in self.fairness:
            if not any(structurally_equal(fair.action, d) for d in disjuncts):
                problems.append(
                    f"fairness action {fair.action!r} is not a disjunct of N "
                    f"in spec {self.name!r} (Proposition 1 hypothesis)"
                )
        return problems

    def __repr__(self) -> str:
        return (f"Spec({self.name!r}, sub={self.sub}, "
                f"fairness={[f.kind for f in self.fairness]})")


def conjoin(specs: Sequence[Spec], name: Optional[str] = None) -> Spec:
    """Parallel composition: the conjunction of canonical specifications.

    Uses ``□[N₁]_v₁ ∧ □[N₂]_v₂ = □[ [N₁]_v₁ ∧ [N₂]_v₂ ]_{v₁∪v₂}`` to stay in
    canonical form.  The result's universe is the merge of the parts'.
    """
    if not specs:
        raise ValueError("conjoin needs at least one spec")
    if len(specs) == 1:
        return specs[0]
    init = And(*[spec.init for spec in specs])
    next_action = And(*[square(spec.next_action, spec.sub) for spec in specs])
    sub: Tuple[str, ...] = ()
    seen = set()
    for spec in specs:
        for var in spec.sub:
            if var not in seen:
                seen.add(var)
                sub += (var,)
    universe = specs[0].universe
    for spec in specs[1:]:
        universe = universe.merge(spec.universe)
    fairness: List[Fairness] = []
    for spec in specs:
        fairness.extend(spec.fairness)
    return Spec(
        name or "(" + " ∧ ".join(spec.name for spec in specs) + ")",
        init,
        next_action,
        sub,
        universe,
        fairness,
    )


class Component:
    """A component: a canonical Spec plus its interface partition.

    The paper's queue component is::

        Component("Queue",
                  outputs=("i.ack", "o.sig", "o.val"),
                  internals=("q",),
                  inputs=("i.sig", "i.val", "o.ack"),
                  init=InitM, next_action=QM, fairness=[WF(...)],
                  universe=...)

    :meth:`formula` hides the internals (``QM = ∃q : IQM``);
    :meth:`inner_spec` is the unhidden ``IQM``.
    """

    __slots__ = ("name", "outputs", "internals", "inputs", "_spec")

    def __init__(
        self,
        name: str,
        outputs: Sequence[str],
        internals: Sequence[str],
        inputs: Sequence[str],
        init: object,
        next_action: object,
        universe: Universe,
        fairness: Sequence[Fairness] = (),
    ):
        self.name = name
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.internals: Tuple[str, ...] = tuple(internals)
        self.inputs: Tuple[str, ...] = tuple(inputs)
        overlap = (set(self.outputs) & set(self.inputs)) | (
            set(self.outputs) & set(self.internals)
        ) | (set(self.inputs) & set(self.internals))
        if overlap:
            raise ValueError(
                f"component {name!r}: variables in several interface roles: "
                f"{sorted(overlap)}"
            )
        sub = self.outputs + self.internals  # the paper's v = <m, x>
        self._spec = Spec(name, init, next_action, sub, universe, fairness)

    # -- projections -----------------------------------------------------------

    @property
    def spec(self) -> Spec:
        """The unhidden canonical spec (internals visible)."""
        return self._spec

    inner_spec = spec

    @property
    def universe(self) -> Universe:
        return self._spec.universe

    @property
    def init(self) -> Expr:
        return self._spec.init

    @property
    def next_action(self) -> Expr:
        return self._spec.next_action

    @property
    def sub(self) -> Tuple[str, ...]:
        return self._spec.sub

    @property
    def fairness(self) -> Tuple[Fairness, ...]:
        return self._spec.fairness

    def visible_vars(self) -> Tuple[str, ...]:
        return self.outputs + self.inputs

    # -- formulas ----------------------------------------------------------------

    def formula(self) -> TemporalFormula:
        """The component's specification, internals hidden."""
        inner = self._spec.formula()
        if not self.internals:
            return inner
        bindings = {x: self.universe.domain(x) for x in self.internals}
        return Hide(bindings, inner)

    def safety_formula(self) -> TemporalFormula:
        """Closure with internals hidden: ``∃x : Init ∧ □[N]_v`` (valid by
        Propositions 1 and 2)."""
        inner = self._spec.safety_formula()
        if not self.internals:
            return inner
        bindings = {x: self.universe.domain(x) for x in self.internals}
        return Hide(bindings, inner)

    # -- transformation -------------------------------------------------------------

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Component":
        spec = self._spec.rename(mapping, name=name or self.name)
        renamed = Component.__new__(Component)
        renamed.name = name or spec.name
        renamed.outputs = tuple(mapping.get(v, v) for v in self.outputs)
        renamed.internals = tuple(mapping.get(v, v) for v in self.internals)
        renamed.inputs = tuple(mapping.get(v, v) for v in self.inputs)
        renamed._spec = Spec(renamed.name, spec.init, spec.next_action,
                             renamed.outputs + renamed.internals,
                             spec.universe, spec.fairness)
        return renamed

    # -- validation ---------------------------------------------------------------

    def validate_interleaving(self) -> List[str]:
        """Structural checks of section 2.2's conventions.

        * ``Init`` constrains only declared variables.  (The paper's own
          queue example has ``Init_E = CInit(i)``, which mentions the
          *receiver's* output ``i.ack`` -- "we arbitrarily consider the
          initial conditions on a channel to be part of the sender's
          initial predicate" -- so inputs are allowed in Init; only
          undeclared variables are flagged.)
        * ``N`` primes only outputs, internals, and inputs.
        """
        problems = []
        owned = set(self.outputs) | set(self.internals)
        declared = owned | set(self.inputs)
        stray_init = sorted(self._spec.init.free_vars() - declared)
        if stray_init:
            problems.append(
                f"component {self.name!r}: Init mentions undeclared variables "
                f"{stray_init}"
            )
        primed = self._spec.next_action.primed_vars()
        stray_primed = sorted(primed - owned - set(self.inputs))
        if stray_primed:
            problems.append(
                f"component {self.name!r}: N primes undeclared variables "
                f"{stray_primed}"
            )
        return problems

    def __repr__(self) -> str:
        return (f"Component({self.name!r}, outputs={self.outputs}, "
                f"internals={self.internals}, inputs={self.inputs})")


def spec_of_formula(
    formula: TemporalFormula,
    universe: Universe,
    name: str = "spec",
) -> Spec:
    """Pattern-match a conjunction of ``StatePred``/``ActionBox``/``WF``/``SF``
    (and nested ``TAnd``/``Always(StatePred)``) into a canonical Spec.

    This is the glue the Composition Theorem engine uses: hypothesis
    left-hand sides are conjunctions of component specs and ``Disjoint``
    conditions; after Propositions 1 and 2 strip closures and quantifiers,
    what remains is exactly this fragment.  ``Hide`` nodes are rejected --
    unhide first (Proposition 2).
    """
    inits: List[Expr] = []
    boxes: List[ActionBox] = []
    fairness: List[Fairness] = []

    def walk(tf: TemporalFormula) -> None:
        if isinstance(tf, TAnd):
            for part in tf.parts:
                walk(part)
        elif isinstance(tf, StatePred):
            inits.append(tf.pred)
        elif isinstance(tf, Always) and isinstance(tf.body, StatePred):
            # □P  =  P ∧ □[P']_{vars(P)}: if P holds and its variables are
            # untouched it keeps holding, so the box only needs to constrain
            # steps that change vars(P).
            pred = tf.body.pred
            inits.append(pred)
            pvars = tuple(sorted(pred.free_vars()))
            if pvars:
                boxes.append(ActionBox(pred.prime(), pvars))
        elif isinstance(tf, ActionBox):
            boxes.append(tf)
        elif isinstance(tf, SF):
            fairness.append(Fairness(Fairness.STRONG, tf.sub, tf.action))
        elif isinstance(tf, WF):
            fairness.append(Fairness(Fairness.WEAK, tf.sub, tf.action))
        else:
            raise TypeError(
                f"cannot normalise {tf!r} into a canonical Spec; "
                "apply Proposition 2 to remove Hide, and Proposition 1 to "
                "remove closures, first"
            )

    walk(formula)
    if not boxes:
        raise TypeError(f"no □[N]_v conjunct found in {formula!r}")
    init = And(*inits) if inits else Const(True)
    next_action = And(*[square(box.action, box.sub) for box in boxes])
    sub: Tuple[str, ...] = ()
    seen = set()
    for box in boxes:
        for var in box.sub:
            if var not in seen:
                seen.add(var)
                sub += (var,)
    return Spec(name, init, next_action, sub, universe, fairness)
