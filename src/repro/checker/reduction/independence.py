"""Deriving an independence relation from the paper's disjointness shape.

The Composition Theorem machinery composes components with
:meth:`repro.spec.conjoin` -- the next-state action becomes a conjunction
of *squares* ``[N_i]_{v_i}`` -- and a :class:`repro.core.disjoint.DisjointSpec`
component whose formula says steps of different components touch
``⊥``-disjoint variable tuples.  After squaring, the Disjoint conjunct is
a **pure frame** -- a positive boolean combination of ``unchanged``
identity constraints -- and that is precisely the shape this module
recognises to split the monolithic next-state action into *transition
classes* whose read/write footprints certify independence:

* Each square conjunct ``Or(move_1, ..., move_k, unchanged(v_i))``
  contributes its moves and declares ownership of ``v_i``; the owned
  sets must partition the universe (the paper's tuple-disjointness
  hypothesis).
* Each pure-frame conjunct (the squared ``Disjoint`` formula) is a
  *separation certificate*: it forbids steps in which two components'
  must-change variables move simultaneously.  Component pairs the
  frames do not provably separate are merged into one class cluster
  (conservative: clustering only loses reduction, never soundness).
* Or-shaped next-state actions (complete systems built as a disjunction
  of moves, e.g. ``complete_queue``) decompose directly into one class
  per distributed disjunct -- the union of the classes *is* the action.

Two classes are **independent** when their footprints are disjoint the
same way ``⊥`` demands: ``W_a ∩ W_b = W_a ∩ R_b = W_b ∩ R_a = ∅``.
Footprints deliberately exclude identity conjuncts ``x' = x`` (framing a
variable neither reads nor writes it for commutation purposes), and
conservatively include enumerated-unconstrained variables as writes.

Everything here is *syntactic and conservative*: when the action does
not have a recognisable shape, :func:`decompose` returns an unusable
:class:`Decomposition` carrying a human-readable ``reason``, and the
explorer falls back to full expansion -- reduction can be lost, never
verdicts.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...kernel.expr import (
    And,
    Const,
    Eq,
    Exists,
    Expr,
    Forall,
    Or,
    Var,
)
from ...kernel.state import State, Universe
from ...spec import Spec

__all__ = ["TransitionClass", "Decomposition", "decompose"]

# distribution / class-count ceiling: beyond this the per-state ample
# computation would cost more than the reduction saves
_MAX_CLASSES = 128


# -- structural helpers -------------------------------------------------------


def _identity_varset(expr: Expr) -> Optional[FrozenSet[str]]:
    """The framed variables if *expr* is a pure identity conjunction
    (``x' = x`` atoms, possibly under And / Const(True)); else None."""
    if isinstance(expr, Eq):
        lhs, rhs = expr.args
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if (isinstance(a, Var) and a.primed and isinstance(b, Var)
                    and not b.primed and a.name == b.name):
                return frozenset({a.name})
        return None
    if isinstance(expr, Const):
        return frozenset() if expr.value is True else None
    if isinstance(expr, And):
        out: FrozenSet[str] = frozenset()
        for child in expr.args:
            sub = _identity_varset(child)
            if sub is None:
                return None
            out |= sub
        return out
    return None


def _is_pure_frame(expr: Expr) -> bool:
    """True when *expr* is a positive And/Or combination of identity
    constraints -- the squared ``Disjoint`` formula's shape."""
    if _identity_varset(expr) is not None:
        return True
    if isinstance(expr, (And, Or)):
        return all(_is_pure_frame(child) for child in expr.args)
    return False


def _frame_trivial(expr: Expr, writes: FrozenSet[str]) -> bool:
    """Monotone three-valued check: is the pure frame *expr* guaranteed
    to hold on every step that changes only variables in *writes*?
    Identity atoms over untouched variables are True, over touched ones
    pessimistically False."""
    varset = _identity_varset(expr)
    if varset is not None:
        return varset.isdisjoint(writes)
    if isinstance(expr, And):
        return all(_frame_trivial(child, writes) for child in expr.args)
    if isinstance(expr, Or):
        return any(_frame_trivial(child, writes) for child in expr.args)
    return False  # pragma: no cover - guarded by _is_pure_frame


def _frame_forbids(expr: Expr, change_a: FrozenSet[str],
                   change_b: FrozenSet[str]) -> bool:
    """Does the pure frame *expr* rule out any step that changes all of
    *change_a* and all of *change_b* simultaneously?

    An identity atom set S contradicts such a step as soon as it
    intersects either side; And forbids if any conjunct does; Or only if
    every disjunct does."""
    varset = _identity_varset(expr)
    if varset is not None:
        return (not varset.isdisjoint(change_a)
                or not varset.isdisjoint(change_b))
    if isinstance(expr, And):
        return any(_frame_forbids(child, change_a, change_b)
                   for child in expr.args)
    if isinstance(expr, Or):
        return all(_frame_forbids(child, change_a, change_b)
                   for child in expr.args)
    return False  # pragma: no cover - guarded by _is_pure_frame


def _core_sets(expr: Expr,
               bound: FrozenSet[str] = frozenset()
               ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(reads, writes) of *expr* with identity conjuncts stripped.

    Framing ``x' = x`` neither reads nor writes ``x`` for commutation
    purposes, so identity parts are excluded wherever they appear as
    conjuncts (including inside quantifier bodies)."""
    if _identity_varset(expr) is not None:
        return frozenset(), frozenset()
    if isinstance(expr, And):
        reads: FrozenSet[str] = frozenset()
        writes: FrozenSet[str] = frozenset()
        for child in expr.args:
            r, w = _core_sets(child, bound)
            reads |= r
            writes |= w
        return reads, writes
    if isinstance(expr, (Exists, Forall)):
        return _core_sets(expr.body, bound | frozenset({expr.var}))
    return expr.free_vars() - bound, expr.primed_vars()


def _guard_conjuncts(expr: Expr,
                     bound: FrozenSet[str] = frozenset()) -> List[Expr]:
    """Prime-free conjuncts of *expr* (enabling conditions), collected
    through And and through quantifier bodies when binder-independent."""
    if isinstance(expr, And):
        out: List[Expr] = []
        for child in expr.args:
            out.extend(_guard_conjuncts(child, bound))
        return out
    if isinstance(expr, (Exists, Forall)):
        inner = _guard_conjuncts(expr.body, bound | frozenset({expr.var}))
        return [g for g in inner if g.free_vars().isdisjoint({expr.var})]
    if not expr.primed_vars() and expr.free_vars().isdisjoint(bound):
        if isinstance(expr, Const):
            return []
        return [expr]
    return []


def _must_change(expr: Expr, universe: Universe) -> FrozenSet[str]:
    """Variables guaranteed to change in *every* step satisfying *expr*.

    A binding ``x' = e`` with ``free(e) ⊆ {x}`` guarantees change when
    ``e`` differs from ``x`` on the whole domain (e.g. a bit flip
    ``sig' = 1 - sig``) -- checked by brute evaluation over ``dom(x)``.
    Or-branches guarantee only their intersection; everything else
    contributes nothing (conservative)."""
    if isinstance(expr, And):
        out: FrozenSet[str] = frozenset()
        for child in expr.args:
            out |= _must_change(child, universe)
        return out
    if isinstance(expr, Or):
        if not expr.args:
            return frozenset()
        result = _must_change(expr.args[0], universe)
        for child in expr.args[1:]:
            result &= _must_change(child, universe)
        return result
    if isinstance(expr, (Exists, Forall)):
        inner = _must_change(expr.body, universe)
        return inner - frozenset({expr.var})
    if isinstance(expr, Eq):
        lhs, rhs = expr.args
        for target, value in ((lhs, rhs), (rhs, lhs)):
            if not (isinstance(target, Var) and target.primed):
                continue
            name = target.name
            if value.primed_vars() or not value.free_vars() <= {name}:
                continue
            if name not in universe.variables:
                continue
            try:
                flips = all(
                    value.eval_state(State._trusted({name: v})) != v
                    for v in universe.domain(name).values()
                )
            except Exception:
                flips = False
            if flips:
                return frozenset({name})
        return frozenset()
    return frozenset()


def _distribute_moves(expr: Expr, limit: int) -> Optional[List[Expr]]:
    """Flatten *expr* into a bounded disjunction of conjunctive moves
    (And-over-Or distribution); None when the product exceeds *limit*."""
    if isinstance(expr, Or):
        out: List[Expr] = []
        for child in expr.args:
            sub = _distribute_moves(child, limit)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > limit:
                return None
        return out
    if isinstance(expr, And):
        parts: List[List[Expr]] = []
        total = 1
        for child in expr.args:
            sub = _distribute_moves(child, limit)
            if sub is None:
                return None
            total *= len(sub)
            if total > limit:
                return None
            parts.append(sub)
        combos: List[List[Expr]] = [[]]
        for options in parts:
            combos = [combo + [option] for combo in combos
                      for option in options]
        return [And(*combo) if len(combo) != 1 else combo[0]
                for combo in combos]
    return [expr]


def _unchanged(names: Sequence[str]) -> Expr:
    """``unchanged`` over a deterministic (sorted) variable order."""
    ordered = sorted(names)
    if not ordered:
        return Const(True)
    return And(*[Eq(Var(name, primed=True), Var(name)) for name in ordered])


# -- the decomposition --------------------------------------------------------


class TransitionClass:
    """One independently schedulable slice of the next-state action.

    ``action`` is a self-contained action expression whose steps are
    exactly the full action's steps that move only this class's
    variables (plus stutter); ``reads``/``writes`` are the ⊥-footprints
    the dependence relation is computed from; ``guards`` lists this
    class's prime-free enabling conjuncts for necessary-enabling-set
    computation."""

    __slots__ = ("index", "label", "action", "reads", "writes", "guards",
                 "visible")

    def __init__(self, index: int, label: str, action: Expr,
                 reads: FrozenSet[str], writes: FrozenSet[str],
                 guards: Tuple[Expr, ...]):
        self.index = index
        self.label = label
        self.action = action
        self.reads = reads
        self.writes = writes
        self.guards = guards
        self.visible = False  # set by the reducer against observed vars

    def __repr__(self) -> str:
        return (f"TransitionClass({self.label}, reads={sorted(self.reads)}, "
                f"writes={sorted(self.writes)})")


class Decomposition:
    """The derived transition classes plus their dependence structure.

    ``usable`` is False (with a ``reason``) when the action shape is not
    recognised; the reducer then disables itself and exploration falls
    back to full expansion."""

    __slots__ = ("classes", "reason", "dep", "writers_by_var",
                 "guard_writers", "fallback_nes")

    def __init__(self, classes: List[TransitionClass],
                 reason: Optional[str] = None):
        self.classes = classes
        self.reason = reason
        self.dep: List[FrozenSet[int]] = []
        self.writers_by_var: Dict[str, FrozenSet[int]] = {}
        # per class: ((guard, writer-class indices), ...) for NES lookup
        self.guard_writers: List[Tuple[Tuple[Expr, FrozenSet[int]], ...]] = []
        self.fallback_nes: List[FrozenSet[int]] = []
        if reason is None:
            self._analyse()

    @property
    def usable(self) -> bool:
        return self.reason is None and len(self.classes) > 1

    def _analyse(self) -> None:
        classes = self.classes
        writers: Dict[str, List[int]] = {}
        for cls in classes:
            for name in cls.writes:
                writers.setdefault(name, []).append(cls.index)
        self.writers_by_var = {name: frozenset(ids)
                               for name, ids in writers.items()}

        def writer_set(names: FrozenSet[str]) -> FrozenSet[int]:
            out: FrozenSet[int] = frozenset()
            for name in names:
                out |= self.writers_by_var.get(name, frozenset())
            return out

        for a in classes:
            deps = set()
            for b in classes:
                if a.index == b.index:
                    continue
                if (not a.writes.isdisjoint(b.writes)
                        or not a.writes.isdisjoint(b.reads)
                        or not b.writes.isdisjoint(a.reads)):
                    deps.add(b.index)
            self.dep.append(frozenset(deps))
            self.guard_writers.append(tuple(
                (guard, writer_set(guard.free_vars())) for guard in a.guards
            ))
            self.fallback_nes.append(writer_set(a.reads | a.writes))

    def independent(self, a: int, b: int) -> bool:
        """⊥-independence of two classes (symmetric, irreflexive)."""
        return a != b and b not in self.dep[a]


def _unusable(reason: str) -> Decomposition:
    return Decomposition([], reason=reason)


def decompose(spec: Spec, max_classes: int = _MAX_CLASSES) -> Decomposition:
    """Derive transition classes from *spec*'s next-state action.

    Recognises the two shapes the repo's composition pipeline produces:
    a top-level disjunction of moves (complete systems), and a
    conjunction of component squares plus pure-frame ``Disjoint``
    conjuncts (outputs of :func:`repro.spec.conjoin`).  Anything else
    yields an unusable decomposition with a diagnostic reason."""
    universe_vars = frozenset(spec.universe.variables)
    action = spec.next_action
    conjuncts: Sequence[Expr] = (action.args if isinstance(action, And)
                                 else (action,))

    if len(conjuncts) == 1:
        return _decompose_or_form(conjuncts[0], spec, universe_vars,
                                  max_classes)
    return _decompose_squares(conjuncts, spec, universe_vars, max_classes)


def _decompose_or_form(action: Expr, spec: Spec,
                       universe_vars: FrozenSet[str],
                       max_classes: int) -> Decomposition:
    """A complete system written as a disjunction of moves: every
    distributed disjunct is a class of its own (their union is the
    action, so coverage is definitional)."""
    moves = _distribute_moves(action, max_classes)
    if moves is None:
        return _unusable(
            f"next-state action distributes into more than {max_classes} "
            f"disjuncts"
        )
    # drop stutter moves -- identities over *every* universe variable,
    # e.g. the UNCHANGED disjunct of a parsed ``[][Next]_v``: their only
    # successor is the state itself, which classes never count as
    # enabling, so keeping them would just pad the class list and
    # misreport irreducible specs as reducible.  (A partial identity is
    # kept: its unconstrained variables still admit non-self steps.)
    def _is_stutter(move: Expr) -> bool:
        varset = _identity_varset(move)
        return varset is not None and universe_vars <= varset

    moves = [move for move in moves if not _is_stutter(move)]
    if len(moves) <= 1:
        return _unusable("next-state action has a single transition class; "
                         "nothing to reduce")
    classes: List[TransitionClass] = []
    for mi, move in enumerate(moves):
        reads, core_writes = _core_sets(move)
        unconstrained = universe_vars - move.primed_vars()
        writes = (core_writes & universe_vars) | unconstrained
        classes.append(TransitionClass(
            index=mi, label=f"m{mi}", action=move,
            reads=reads & universe_vars, writes=writes,
            guards=tuple(_guard_conjuncts(move)),
        ))
    return Decomposition(classes)


def _decompose_squares(conjuncts: Sequence[Expr], spec: Spec,
                       universe_vars: FrozenSet[str],
                       max_classes: int) -> Decomposition:
    """Conjoined component squares + pure-frame Disjoint conjuncts."""
    frames: List[Expr] = []
    # per component: (conjunct, owned vars, distributed moves)
    components: List[Tuple[Expr, FrozenSet[str], List[Expr]]] = []
    for ci, conjunct in enumerate(conjuncts):
        if _is_pure_frame(conjunct):
            frames.append(conjunct)
            continue
        if not isinstance(conjunct, Or):
            return _unusable(
                f"conjunct {ci} is neither a component square nor a pure "
                f"frame: {type(conjunct).__name__}"
            )
        owned: FrozenSet[str] = frozenset()
        raw_moves: List[Expr] = []
        for disjunct in conjunct.args:
            varset = _identity_varset(disjunct)
            if varset is not None:
                owned |= varset
            else:
                raw_moves.append(disjunct)
        if not owned:
            return _unusable(
                f"conjunct {ci} has no identity (frame) disjunct; not a "
                f"square"
            )
        moves: List[Expr] = []
        for raw in raw_moves:
            sub = _distribute_moves(raw, max_classes)
            if sub is None or len(moves) + len(sub) > max_classes:
                return _unusable(
                    f"conjunct {ci} distributes into more than "
                    f"{max_classes} moves"
                )
            moves.extend(sub)
        for move in moves:
            _reads, core_writes = _core_sets(move)
            if not (core_writes & universe_vars) <= owned:
                return _unusable(
                    f"conjunct {ci} move writes "
                    f"{sorted((core_writes & universe_vars) - owned)} "
                    f"outside its owned set {sorted(owned)}"
                )
        components.append((conjunct, owned, moves))

    if not components:
        return _unusable("no component squares found")
    all_owned = [owned for _c, owned, _m in components]
    union_owned: FrozenSet[str] = frozenset()
    for owned in all_owned:
        if not union_owned.isdisjoint(owned):
            return _unusable(
                f"component owned sets overlap on "
                f"{sorted(union_owned & owned)}"
            )
        union_owned |= owned
    if union_owned != universe_vars:
        return _unusable(
            f"owned sets do not cover the universe; uncovered: "
            f"{sorted(universe_vars - union_owned)}"
        )

    # pairwise separation via the frame certificates, on must-change sets
    must = [[_must_change(move, spec.universe) for move in moves]
            for _c, _o, moves in components]
    n = len(components)
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            uf[max(ra, rb)] = min(ra, rb)

    for a in range(n):
        for b in range(a + 1, n):
            separated = all(
                any(_frame_forbids(frame, ma, mb) for frame in frames)
                for ma in must[a] for mb in must[b]
            ) if must[a] and must[b] else False
            if not separated:
                union(a, b)

    clusters: Dict[int, List[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)

    classes: List[TransitionClass] = []
    for root in sorted(clusters):
        members = clusters[root]
        cluster_owned: FrozenSet[str] = frozenset()
        for i in members:
            cluster_owned |= components[i][1]
        rest = universe_vars - cluster_owned
        if len(members) == 1:
            ci = members[0]
            _conjunct, owned, moves = components[ci]
            for mi, move in enumerate(moves):
                _reads, core_writes = _core_sets(move)
                writes = ((core_writes & universe_vars)
                          | (owned - move.primed_vars()))
                live_frames = [f for f in frames
                               if not _frame_trivial(f, writes)]
                parts = [move] + live_frames + [_unchanged(sorted(rest))]
                classes.append(TransitionClass(
                    index=len(classes), label=f"c{ci}m{mi}",
                    action=And(*parts),
                    reads=_reads & universe_vars,
                    writes=writes,
                    guards=tuple(_guard_conjuncts(move)),
                ))
        else:
            # unseparated components move together: one conservative class
            # conjoining their full squares (sound: its steps are exactly
            # the full action's steps confined to the cluster's variables)
            reads: FrozenSet[str] = frozenset(cluster_owned)
            for i in members:
                for move in components[i][2]:
                    r, _w = _core_sets(move)
                    reads |= r & universe_vars
            live_frames = [f for f in frames
                           if not _frame_trivial(f, cluster_owned)]
            parts = ([components[i][0] for i in members] + live_frames
                     + [_unchanged(sorted(rest))])
            label = "cluster(" + ",".join(str(i) for i in members) + ")"
            classes.append(TransitionClass(
                index=len(classes), label=label, action=And(*parts),
                reads=reads, writes=frozenset(cluster_owned),
                guards=(),
            ))
    if len(classes) <= 1:
        return _unusable("all components collapse into a single dependence "
                         "cluster; nothing to reduce")
    return Decomposition(classes)
