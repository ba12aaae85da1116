"""Action toolkit: ``[A]_v``, ``<A>_v``, ``UNCHANGED``, ``ENABLED``, and a
compiler from actions to an efficient successor-state generator.

An action is a Boolean :class:`~repro.kernel.expr.Expr` over primed and
unprimed variables.  Semantically it is a relation on state pairs; the model
checker needs, for a given state ``s``, the set ``{t | A(s, t)}`` of
successors.  Enumerating *all* states ``t`` of the universe and filtering is
correct but exponential; almost all actions in practice are (disjunctions
of) conjunctions containing equations ``x' = e`` with ``e`` prime-free,
which *determine* the successor.  :func:`compile_action` normalises an
action into :class:`Branch` objects -- bindings (determined primed
variables) plus residual constraints -- and :class:`SuccessorPlan`
specialises them to a universe as a tree of branch plans that enumerate
only the genuinely undetermined primed variables.  This mirrors what the
TLC model checker does for TLA+.

The tree is the analysis; one walker runs it.
:meth:`SuccessorPlan.successors` and :meth:`SuccessorPlan.enabled` are
:class:`~repro.kernel.packed.PackedPlan`'s walks over packed rows,
encoded from (and decoded back to) states, so every engine enumerates
successors, and every ENABLED query looks for a witness, through the
same code.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Tuple,
                    TYPE_CHECKING)

from .expr import (
    And,
    Const,
    Env,
    Eq,
    Exists,
    Expr,
    Not,
    Or,
    TupleExpr,
    Var,
    to_expr,
)
from .state import State, Universe

if TYPE_CHECKING:  # pragma: no cover - types only
    from .packed import PackedPlan


def unchanged(names: Iterable[str]) -> Expr:
    """``UNCHANGED <<names>>``: each variable keeps its value over the step."""
    names = tuple(names)
    if not names:
        return Const(True)
    return And(*[Eq(Var(name, primed=True), Var(name)) for name in names])


def changed(names: Iterable[str]) -> Expr:
    """At least one of the variables changes over the step."""
    return Not(unchanged(names))


def square(action: object, sub: Iterable[str]) -> Expr:
    """The paper's ``[A]_v``: an ``A`` step or a step leaving ``v`` unchanged."""
    return Or(to_expr(action), unchanged(sub))


def angle(action: object, sub: Iterable[str]) -> Expr:
    """``<A>_v``: an ``A`` step that changes ``v``."""
    return And(to_expr(action), changed(sub))


class Branch:
    """One disjunct of a compiled action.

    * ``bindings`` maps primed-variable names to *prime-free* expressions
      over the pre-state that determine their post-value.
    * ``binding_checks`` are additional determinations of already-bound
      variables (arising when conjuncts both pin ``x'``); they are checked
      against the bound value *before* a candidate state is built, which
      kills conflicting branches cheaply.
    * ``constraints`` are residual Boolean expressions evaluated over the
      full step once a candidate post-state is assembled.
    """

    __slots__ = ("bindings", "binding_checks", "constraints")

    def __init__(
        self,
        bindings: Dict[str, Expr],
        constraints: List[Expr],
        binding_checks: Optional[List[Tuple[str, Expr]]] = None,
    ):
        self.bindings = bindings
        self.constraints = constraints
        self.binding_checks = binding_checks or []

    def __repr__(self) -> str:
        return (f"Branch(bindings={sorted(self.bindings)}, "
                f"checks={len(self.binding_checks)}, "
                f"constraints={len(self.constraints)})")


def _merge(lhs: Branch, rhs: Branch) -> Branch:
    """Conjoin two branches; duplicate bindings become fail-fast checks."""
    bindings = dict(lhs.bindings)
    constraints = list(lhs.constraints) + list(rhs.constraints)
    checks = list(lhs.binding_checks) + list(rhs.binding_checks)
    for name, expr in rhs.bindings.items():
        if name in bindings:
            checks.append((name, expr))
        else:
            bindings[name] = expr
    return Branch(bindings, constraints, checks)


def _as_binding(lhs: Expr, rhs: Expr) -> Optional[Tuple[str, Expr]]:
    """Recognise ``x' = e`` (either orientation) with prime-free ``e``."""
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if isinstance(a, Var) and a.primed and not b.primed_vars():
            return a.name, b
    return None


_MAX_BRANCHES = 4096


_BRANCH_BUDGET = 128


def _compile(expr: Expr) -> List[Branch]:
    if isinstance(expr, And):
        compiled = [(conjunct, _compile(conjunct)) for conjunct in expr.args]
        # merge cheap conjuncts first; once the distributed product would
        # exceed the budget, keep further conjuncts as opaque constraints
        # checked per candidate (sound: a constraint is just an unmerged
        # conjunct).  This is what keeps products with Disjoint conditions
        # from exploding into thousands of branches.
        compiled.sort(key=lambda pair: len(pair[1]))
        branches = [Branch({}, [])]
        for conjunct, sub in compiled:
            if len(branches) > 1 and len(sub) > 1 and \
                    len(branches) * len(sub) > _BRANCH_BUDGET:
                branches = [
                    Branch(b.bindings, b.constraints + [conjunct],
                           list(b.binding_checks))
                    for b in branches
                ]
                continue
            branches = [_merge(b, s) for b in branches for s in sub]
            if len(branches) > _MAX_BRANCHES:
                return [Branch({}, [expr])]
        return branches
    if isinstance(expr, Or):
        branches: List[Branch] = []
        for disjunct in expr.args:
            branches.extend(_compile(disjunct))
        if len(branches) > _MAX_BRANCHES:
            return [Branch({}, [expr])]
        return branches
    if isinstance(expr, Eq):
        lhs, rhs = expr.args
        binding = _as_binding(lhs, rhs)
        if binding is not None:
            name, value_expr = binding
            return [Branch({name: value_expr}, [])]
        # destructure <<a', b'>> = <<x, y>> elementwise
        if (
            isinstance(lhs, TupleExpr)
            and isinstance(rhs, TupleExpr)
            and len(lhs.args) == len(rhs.args)
        ):
            return _compile(And(*[Eq(a, b) for a, b in zip(lhs.args, rhs.args)]))
        return [Branch({}, [expr])]
    if isinstance(expr, Exists):
        branches = []
        for value in expr.domain.values():
            instantiated = expr.body.substitute({expr.var: Const(value)})
            branches.extend(_compile(instantiated))
            if len(branches) > _MAX_BRANCHES:
                return [Branch({}, [expr])]
        return branches
    if isinstance(expr, Const):
        if expr.value is True:
            return [Branch({}, [])]
        if expr.value is False:
            return []
    return [Branch({}, [expr])]


_EXPAND_CAP = 512

#: one expansion level peels one opaque conjunct, so a product of k
#: component specs (certificate products conjoin every device plus the
#: Disjoint spec) needs about k levels before its branches determine
#: every primed variable
_EXPAND_DEPTH = 8

#: total sub-plans per SuccessorPlan, counted as they are reached (a node's
#: sub-plans are built when a state first passes its guards); past this,
#: a reached node's free variables fall back to domain enumeration (same
#: successors, same order)
_EXPAND_TOTAL = 65536


class _Growth:
    """What the nodes of one :class:`SuccessorPlan` tree share while the
    tree grows on demand: the universe and frame, the count of sub-plans
    built, and the per-plan memo of compiled constraints."""

    __slots__ = ("universe", "relevant", "built", "memo")

    def __init__(self, universe: "Universe", relevant: Tuple[str, ...]):
        self.universe = universe
        self.relevant = relevant
        self.built = 0
        self.memo: Dict[int, List[Branch]] = {}


class _BranchPlan:
    """One node of a :class:`SuccessorPlan`'s tree: the per-state work of
    :class:`Branch`, with everything that depends only on the universe and
    frame hoisted out of the per-state loop.

    * ``bindings`` -- ``(name, expr)`` for each determined primed
      variable declared in the universe;
    * ``checks`` -- the fail-fast re-determinations whose target variable
      is actually determined by this branch;
    * ``fixed_bound`` -- determined variables *outside* the frame: their
      computed post-value must equal the pre-state value, or the branch
      contributes nothing for this state;
    * ``free_names`` -- the undetermined frame variables, enumerated by
      the product of their domains;
    * ``free_needed`` -- the indices of the free variables some step
      constraint reads primed: the only ones an ENABLED witness varies;
    * ``pre_constraints``/``step_constraints`` -- the residual constraints
      split by whether they mention primed variables: a prime-free
      constraint depends only on the pre-state, so it is evaluated once
      per (state, branch) *before* any candidate is assembled, killing
      disabled branches for the price of one guard evaluation;
    * ``expanded`` -- when the branch has free variables but one of its
      opaque constraints compiles into sub-branches that determine them
      (the shape the ``_BRANCH_BUDGET`` cutoff in :func:`_compile`
      produces for large component products), the refined sub-plans.
      Successors are then generated from the sub-plans and emitted in the
      free-variable *domain-product order* -- exactly the sequence the
      unexpanded enumeration would have produced, so node numbering and
      every downstream golden artifact are unchanged; the expansion is a
      pure optimisation replacing domain enumeration with evaluation.
      It is computed the first time a state reaches this node (passes
      its guards, bindings and checks) and kept: most sub-plans of a
      component product are never reached.

    A sub-plan is analysed as the whole conjunction (its parent's branch
    merged with one sub-branch) but *holds* only what it adds: a state
    reaches it through its parent, which has already decided its own
    guards, bindings and checks and hands the determined values down.
    """

    __slots__ = ("bindings", "checks", "fixed_bound", "free_names",
                 "free_needed", "pre_constraints", "step_constraints",
                 "_pending", "_expanded")

    def __init__(self, branch: Branch, growth: _Growth, depth: int = 0,
                 prefix: Tuple[int, int, int, int] = (0, 0, 0, 0)):
        universe, relevant = growth.universe, growth.relevant
        self.bindings: Tuple[Tuple[str, Expr], ...] = tuple(
            (name, expr) for name, expr in branch.bindings.items()
            if name in universe
        )
        determined = {name for name, _expr in self.bindings}
        self.checks: Tuple[Tuple[str, Expr], ...] = tuple(
            (name, expr) for name, expr in branch.binding_checks
            if name in determined
        )
        relevant_set = set(relevant)
        self.fixed_bound: Tuple[str, ...] = tuple(
            name for name, _expr in self.bindings
            if name not in relevant_set
        )
        free = [name for name in relevant if name not in determined]
        self.free_names: Tuple[str, ...] = tuple(free)
        constraints = tuple(branch.constraints)
        self.pre_constraints: Tuple[Expr, ...] = tuple(
            c for c in constraints if not c.primed_vars()
        )
        self.step_constraints: Tuple[Expr, ...] = tuple(
            c for c in constraints if c.primed_vars()
        )
        mentioned: set = set()
        for c in self.step_constraints:
            mentioned |= c.primed_vars()
        self.free_needed: Tuple[int, ...] = tuple(
            idx for idx, name in enumerate(self.free_names)
            if name in mentioned
        )
        # _merge appends, so an ancestor's whole tuples are prefixes of
        # ours; our sub-plans are cut against our whole tuples, whose
        # lengths are kept until they are built
        whole = (len(self.bindings), len(self.checks),
                 len(self.fixed_bound), len(self.pre_constraints))
        self._expanded: Optional[Tuple["_BranchPlan", ...]] = None
        self._pending = ((branch, growth, depth, whole)
                         if free and depth < _EXPAND_DEPTH else None)
        nb, nc, nf, npre = prefix
        self.bindings = self.bindings[nb:]
        self.checks = self.checks[nc:]
        self.fixed_bound = self.fixed_bound[nf:]
        self.pre_constraints = self.pre_constraints[npre:]

    @property
    def expanded(self) -> Optional[Tuple["_BranchPlan", ...]]:
        if self._pending is not None:
            self._expanded = self._expand(*self._pending)
            self._pending = None
        return self._expanded

    def _expand(self, branch: Branch, growth: _Growth, depth: int,
                whole: Tuple[int, int, int, int]
                ) -> Optional[Tuple["_BranchPlan", ...]]:
        """Refine this branch through the opaque constraint whose own
        compiled sub-branches determine the most free variables."""
        free_set = set(self.free_names)
        memo = growth.memo
        best: Optional[Tuple[int, Expr, List[Branch]]] = None
        for constraint in branch.constraints:
            if not constraint.primed_vars():
                continue  # a guard determines nothing
            # compiled once per plan: the same few constraint objects
            # (kept alive by the branches that list them) recur in every
            # sub-branch at every level
            sub = memo.get(id(constraint))
            if sub is None:
                sub = memo[id(constraint)] = _compile(constraint)
            if not 0 < len(sub) <= _EXPAND_CAP:
                continue
            coverage = min(
                (len(free_set & set(s.bindings)) for s in sub), default=0
            )
            if coverage < 1:
                continue
            if best is None or coverage > best[0]:
                best = (coverage, constraint, sub)
        if best is None:
            return None
        _coverage, chosen, sub = best
        if growth.built + len(sub) > _EXPAND_TOTAL:
            return None  # plan-table cap: fall back to enumeration
        growth.built += len(sub)
        rest = Branch(
            branch.bindings,
            [c for c in branch.constraints if c is not chosen],
            list(branch.binding_checks),
        )
        return tuple(
            _BranchPlan(_merge(rest, sub_branch), growth, depth + 1, whole)
            for sub_branch in sub
        )


class SuccessorPlan:
    """A compiled action specialised to one universe and frame.

    Built once per ``explore()``/``check_*`` run (via
    :meth:`CompiledAction.plan`) and then driven per state; all domain
    lookups, membership tests, and free-variable analyses happen when a
    node is built.  The top-level branch plans are built here, their
    sub-plans when a state first reaches them in the :attr:`packed`
    walker, which both :meth:`successors` and :meth:`enabled` run.
    """

    __slots__ = ("universe", "relevant", "branch_plans", "_growth",
                 "_packed")

    def __init__(self, compiled: "CompiledAction", universe: "Universe",
                 frame: Optional[Iterable[str]] = None):
        # no reference back to *compiled*, which caches this plan: the
        # plan and its packed walker die with their last holder, without
        # waiting for the cyclic collector
        self.universe = universe
        if frame is None:
            self.relevant: Tuple[str, ...] = universe.variables
        else:
            wanted = set(frame)
            self.relevant = tuple(
                name for name in universe.variables if name in wanted
            )
        self._packed: Optional["PackedPlan"] = None
        self._growth = _Growth(universe, self.relevant)
        self.branch_plans: Tuple[_BranchPlan, ...] = tuple(
            _BranchPlan(branch, self._growth)
            for branch in compiled.branches
        )

    @property
    def sub_plans(self) -> int:
        """How many sub-plans the tree has built so far."""
        return self._growth.built

    @property
    def packed(self) -> "PackedPlan":
        """The packed walker of this plan, built on first use."""
        if self._packed is None:
            from .packed import PackedPlan

            self._packed = PackedPlan(self)
        return self._packed

    @property
    def candidates(self) -> int:
        """Candidate post-states assembled so far, before the step
        constraints (the packed walker's count)."""
        return 0 if self._packed is None else self._packed.candidates

    def successors(self, state: State) -> List[State]:
        """The post-states ``t`` with ``action(state, t)``, each once, in
        the packed walker's order.  A universe the packed codec cannot
        represent raises :class:`~repro.kernel.packed.CompactUnsupported`;
        a *state* value outside its variable's domain, ``ValueError``."""
        packed = self.packed
        codec = packed.codec
        return [codec.decode(row)
                for row in packed.successors(codec.encode(state))]

    def enabled(self, state: State) -> bool:
        """The paper's ENABLED: does *some* post-state make a step?  The
        packed walker's witness walk (:meth:`PackedPlan.enabled
        <repro.kernel.packed.PackedPlan.enabled>`) on the encoded state;
        a value outside its variable's domain, or a missing one, raises
        the codec's ``ValueError``."""
        packed = self.packed
        return packed.enabled(packed.codec.encode(state))


class CompiledAction:
    """The compiled form of one action, held by whoever compiled it.

    :meth:`plan` specialises the branches to a universe and frame,
    yielding a :class:`SuccessorPlan`; any universe variable never
    mentioned primed in the action is unconstrained and must be
    enumerated -- see :func:`successors`.
    """

    __slots__ = ("action", "branches", "_plans")

    def __init__(self, action: Expr):
        self.action = to_expr(action)
        self.branches = _compile(self.action)
        self._plans: Dict[Tuple[object, Optional[FrozenSet[str]]],
                          SuccessorPlan] = {}

    def plan(self, universe: "Universe",
             frame: Optional[Iterable[str]] = None) -> SuccessorPlan:
        """The (cached) successor-enumeration plan for *universe*/*frame*.

        Keyed by universe identity -- the universe object itself is held as
        the key, so the id cannot be recycled under us.
        """
        key = (universe, None if frame is None else frozenset(frame))
        cached = self._plans.get(key)
        if cached is None:
            if len(self._plans) > 16:  # bound a pathological caller
                self._plans.clear()
            cached = SuccessorPlan(self, universe, frame)
            self._plans[key] = cached
        return cached


def compile_action(action: Expr) -> CompiledAction:
    """Compile an action expression.  The caller owns the result: hold it
    (or the plan it yields) on the run, checker or theorem that queries
    it, so it lives exactly as long as that owner does."""
    return CompiledAction(action)


class ActionPlans:
    """The compiled actions one owner queries, by action identity.

    For owners that meet actions as they go (a liveness checker's
    conclusion conjuncts, a lasso evaluation's fairness formulas): each
    action is compiled on first sight and dropped with the owner.  An
    entry pins its action, so a live entry's ``id`` cannot be recycled
    -- callers may key their own per-action memos on ``id(action)``
    once they have fetched its plan here.
    """

    __slots__ = ("_by_id",)

    def __init__(self) -> None:
        self._by_id: Dict[int, CompiledAction] = {}

    def plan(self, action: Expr, universe: "Universe") -> SuccessorPlan:
        compiled = self._by_id.get(id(action))
        if compiled is None:
            compiled = self._by_id[id(action)] = CompiledAction(action)
        return compiled.plan(universe)

    def __len__(self) -> int:
        return len(self._by_id)


def successors(
    action: Expr,
    state: State,
    universe: Universe,
    frame: Optional[Iterable[str]] = None,
) -> List[State]:
    """The post-states ``t`` with ``action(state, t)``.

    *frame* is the set of variables allowed to differ from the pre-state;
    it defaults to every variable of the universe.  Passing the
    specification's subscript tuple ``v`` as the frame implements the
    ``[A]_v`` convention that everything else is somebody else's business
    (but note ``[A]_v`` itself should then be passed as the action if
    stuttering steps are wanted).

    Duplicate post-states (reachable through several branches) are emitted
    once.  This is the convenience wrapper; hot loops should build the
    :class:`SuccessorPlan` once and drive it directly.
    """
    return compile_action(action).plan(universe, frame).successors(state)


def enabled(action: Expr, state: State, universe: Universe,
            frame: Optional[Iterable[str]] = None) -> bool:
    """The paper's ENABLED: does some state ``t`` make ``(state, t)`` an
    *action* step?"""
    return compile_action(action).plan(universe, frame).enabled(state)


def holds_on_step(action: Expr, current: State, next_state: State) -> bool:
    """Evaluate an action on an explicit step."""
    return to_expr(action).holds(Env(current, next_state))
