"""Spec -> CNF translation for bounded model checking.

The bridge between the kernel's compiled actions and a SAT solver.  The
encoding reuses :class:`~repro.kernel.packed.PackedCodec`'s bit-field
layout directly: each variable's field of ``width`` bits becomes
``width`` boolean CNF variables per time frame, so a satisfying
assignment's frame bits ARE a packed int and counterexample decoding is
literally ``codec.decode``.

The translation is built once as *templates* -- clause lists over an
abstract frame interface (pre bits, post bits, per-instance auxiliary
variables) -- and stamped out per unrolling depth by renumbering:

* **transition template** (pre + post blocks): one selector variable
  per ``SuccessorPlan`` branch, implying the CNF encoding of that
  branch's guards, bindings, checks and step constraints; plus a
  *stutter* selector implying bitwise pre = post; plus the clause
  "some selector fires".  Including the stutter disjunct makes frame
  ``k`` reach exactly the states at BFS distance <= ``k``, so the
  incremental depth loop finds a violation at precisely the level the
  explicit BFS would.
* **init / violation / validity templates** (single frame): the initial
  predicate asserted at frame 0, the invariant's *definite falsehood*
  asserted at the last frame, and per-variable clauses forbidding the
  unused codes of fields whose domain is not a power of two.

Guards are encoded from the walker's own three-valued DAG
(:mod:`repro.kernel.guard`; DESIGN.md 4g): each node becomes a (value,
err) literal pair, each leaf or field one clause per row of its
``table()``, after quantifiers are expanded over their finite domains.
A spec no table can cover raises :class:`SymbolicUnsupported`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Optional, Tuple

from ..kernel.action import compile_action
from ..kernel.expr import (And, Const, Equiv, Exists, Expr, Forall, Implies,
                           Not, Or, Var, _Nary)
from ..kernel.guard import (DEAD, ERR, AndNode, EquivNode, Guards,
                            ImpliesNode, NotNode, OrNode, Untabulable)
from ..kernel.packed import PackedCodec, support_problem
from ..kernel.state import State

__all__ = ["SymbolicUnsupported", "Translation"]

# Quantifier instances plus encoded guard nodes per template: this bounds
# the translation (expansion can explode), not the solver.
MAX_NODES = 200_000

_TRUE = 1
_FALSE = -1


class SymbolicUnsupported(Exception):
    """This spec cannot be translated to CNF; use the explicit engine."""


#: Clauses over an abstract frame interface: template variable 1 is TRUE,
#: ``2 .. interface+1`` are the frame bits (pre block, then any post block),
#: and those above are auxiliary, renumbered fresh per instantiation.
_Template = namedtuple("_Template", "interface num_aux clauses")


class _Some(Or):
    """An expanded ``Exists``: the Or of its instances as listed (``Or``
    would flatten them), keyed as the quantifier, so the guard build
    shares it exactly where it would share the quantifier."""

    __slots__ = ("_key",)

    def __init__(self, quant: Expr, instances: List[Expr]):
        _Nary.__init__(self, instances)
        self._key = quant.key()

    def key(self):
        return self._key


class _Every(And):
    """An expanded ``Forall``, as :class:`_Some` is an ``Exists``."""

    __slots__ = ("_key",)
    __init__, key = _Some.__init__, _Some.key


class _Builder:
    """Accumulates template clauses and the three-valued encoding."""

    def __init__(self, codec: PackedCodec, frames: int):
        self.codec = codec
        self.bits = codec.bits
        self.interface = frames * codec.bits
        self._next = self.interface + 2
        self.clauses: List[List[int]] = []
        self.nodes = 0
        self.guards = Guards(codec)
        self._pairs: Dict[object, Tuple[int, int]] = {}

    # -- raw CNF -------------------------------------------------------------

    def new_var(self) -> int:
        v = self._next
        self._next += 1
        return v

    def add(self, clause: List[int]) -> None:
        self.clauses.append(clause)

    def template(self) -> _Template:
        return _Template(self.interface, self._next - self.interface - 2,
                         self.clauses)

    def _tick(self, count: int = 1) -> None:
        self.nodes += count
        if self.nodes > MAX_NODES:
            raise SymbolicUnsupported(
                f"translation exceeds {MAX_NODES} nodes "
                f"(quantifier expansion too large)")

    # -- bit literals --------------------------------------------------------

    def bit(self, name: str, i: int, primed: bool) -> int:
        """The template variable of bit *i* of *name*'s field."""
        offset = self.bits if primed else 0
        return 2 + offset + self.codec.shift[name] + i

    def _eq_code_lits(self, name: str, code: int, primed: bool) -> List[int]:
        """Literals that are ALL true iff the field holds *code*."""
        return [self.bit(name, i, primed) if (code >> i) & 1
                else -self.bit(name, i, primed)
                for i in range(self.codec.width[name])]

    def _neq_code_lits(self, name: str, code: int, primed: bool) -> List[int]:
        """Literals whose disjunction says the field differs from *code*."""
        return [-lit for lit in self._eq_code_lits(name, code, primed)]

    def _differs(self, support, codes) -> List[int]:
        """Literals whose disjunction says the support's fields differ
        from *codes* (a table row's guard)."""
        differs: List[int] = []
        for (name, primed), code in zip(support, codes):
            differs.extend(self._neq_code_lits(name, code, primed))
        return differs

    # -- gates ---------------------------------------------------------------

    def define_and(self, lits: List[int]) -> int:
        out = []
        for lit in lits:
            if lit == _FALSE:
                return _FALSE
            if lit != _TRUE and lit not in out:
                out.append(lit)
        if not out:
            return _TRUE
        if len(out) == 1:
            return out[0]
        g = self.new_var()
        for lit in out:
            self.add([-g, lit])
        self.add([g] + [-lit for lit in out])
        return g

    def define_or(self, lits: List[int]) -> int:
        return -self.define_and([-lit for lit in lits])

    # -- quantifier expansion ------------------------------------------------

    def _expand(self, expr: Expr) -> Expr:
        """*expr* with each quantifier it reaches through connectives
        replaced by the Or / And of its instances; connectives are
        rebuilt only where a child changed, and never flattened."""
        if isinstance(expr, (Exists, Forall)):
            values = list(expr.domain.values())
            self._tick(len(values))
            kind = _Some if isinstance(expr, Exists) else _Every
            return kind(expr, [
                self._expand(expr.body.substitute({expr.var: Const(value)}))
                for value in values])
        if not isinstance(expr, (And, Or, Not, Implies, Equiv)):
            return expr
        args = [self._expand(arg) for arg in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        out = object.__new__(type(expr))
        _Nary.__init__(out, args)
        return out

    # -- three-valued encoding -----------------------------------------------
    #
    # encode() returns a (value, err) literal pair per guard node with the
    # invariant that err=true forces value=false; err is the constant
    # FALSE for subtrees that provably cannot raise EvalError, which keeps
    # the common all-total case free of error plumbing.

    def guard(self, expr: Expr) -> Tuple[int, int]:
        """The (value, err) pair of *expr*, quantifiers expanded."""
        return self.encode(self.guards.build(self._expand(expr)))

    def encode(self, node) -> Tuple[int, int]:
        pair = self._pairs.get(node)
        if pair is None:
            self._tick()
            pair = self._pairs[node] = self._encode(node)
        return pair

    def _encode(self, node) -> Tuple[int, int]:
        kind = type(node)
        if kind is AndNode:
            return self._encode_and([self.encode(c) for c in node.children])
        if kind is OrNode:
            return self._encode_or([self.encode(c) for c in node.children])
        if kind is NotNode:
            v, e = self.encode(node.children[0])
            return self.define_and([-v, -e]), e
        if kind is ImpliesNode:
            (va, ea), (vb, eb) = map(self.encode, node.children)
            err = self.define_or([ea, self.define_and([va, eb])])
            val = self.define_or([self.define_and([-va, -ea]),
                                  self.define_and([va, vb])])
            return val, err
        if kind is EquivNode:
            (va, ea), (vb, eb) = map(self.encode, node.children)
            err = self.define_or([ea, eb])
            val = self.define_or([
                self.define_and([va, vb]),
                self.define_and([-va, -ea, -vb, -eb])])
            return val, err
        return self._encode_leaf(node)

    def _encode_and(self, pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
        # value: all children true.  err: some child errs while every
        # child *before* it is true.
        val = self.define_and([v for v, _e in pairs])
        err_terms = []
        prefix = _TRUE
        for v, e in pairs:
            if e != _FALSE:
                err_terms.append(self.define_and([prefix, e]))
            prefix = self.define_and([prefix, v])
        err = self.define_or(err_terms) if err_terms else _FALSE
        return val, err

    def _encode_or(self, pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
        # dual: scan for the first non-false child; an err child hit
        # first wins over a later true child.
        val_terms = []
        err_terms = []
        prefix = _TRUE  # "every child so far was definitely false"
        for v, e in pairs:
            val_terms.append(self.define_and([prefix, v]))
            if e != _FALSE:
                err_terms.append(self.define_and([prefix, e]))
            prefix = self.define_and([prefix, -v, -e]
                                     if e != _FALSE else [prefix, -v])
        val = self.define_or(val_terms) if val_terms else _FALSE
        err = self.define_or(err_terms) if err_terms else _FALSE
        return val, err

    def _encode_leaf(self, leaf) -> Tuple[int, int]:
        name = self._as_unchanged(leaf.expr)
        if name is not None:
            bits = [(self.bit(name, i, False), self.bit(name, i, True))
                    for i in range(self.codec.width[name])]
            return self.define_and([
                self.define_or([self.define_and([a, b]),
                                self.define_and([-a, -b])])
                for a, b in bits]), _FALSE
        support, rows = leaf.table()
        seen = {value for _codes, value in rows}
        if len(seen) == 1:  # constant on its support
            return {1: (_TRUE, _FALSE), 0: (_FALSE, _FALSE),
                    ERR: (_FALSE, _TRUE)}[seen.pop()]
        val = self.new_var()
        err = self.new_var() if ERR in seen else _FALSE
        for codes, value in rows:
            differs = self._differs(support, codes)
            self.add(differs + [val if value == 1 else -val])
            if err != _FALSE:
                self.add(differs + [err if value == ERR else -err])
        return val, err

    def _as_unchanged(self, expr: Expr) -> Optional[str]:
        """``x' = x`` (either orientation) -- encoded as bit equality
        instead of a |domain|^2 enumeration."""
        if type(expr).__name__ == "Eq" and len(expr.args) == 2:
            lhs, rhs = expr.args
            if (isinstance(lhs, Var) and isinstance(rhs, Var)
                    and lhs.name == rhs.name and lhs.primed != rhs.primed
                    and lhs.name in self.codec.shift):
                return lhs.name
        return None

    def encode_assignment(self, name: str, expr: Expr) -> int:
        """The CNF value of binding/check ``name' = expr``: per row of its
        field's table, a code (value literal iff "post field = code") or
        DEAD, which disables the branch as the walker drops the row."""
        self._tick()
        support, rows = self.guards.field(name, expr).table()
        val = self.new_var()
        for codes, target in rows:
            differs = self._differs(support, codes)
            if target == DEAD:
                self.add(differs + [-val])
                continue
            for lit in self._eq_code_lits(name, target, True):
                self.add(differs + [-val, lit])
            self.add(differs + self._neq_code_lits(name, target, True)
                     + [val])
        return val


def _build_transition(codec: PackedCodec, spec) -> _Template:
    plan = compile_action(spec.next_action).plan(spec.universe)
    b = _Builder(codec, frames=2)
    selectors: List[int] = []
    for bp in plan.branch_plans:
        sel = b.new_var()
        conjuncts = [(b.encode_assignment(name, expr), _FALSE)
                     for name, expr in bp.bindings + bp.checks]
        conjuncts += [b.guard(expr)
                      for expr in bp.pre_constraints + bp.step_constraints]
        if any(v == _FALSE or e == _TRUE for v, e in conjuncts):
            continue
        for v, e in conjuncts:
            if v != _TRUE:
                b.add([-sel, v])
            if e != _FALSE:
                b.add([-sel, -e])
        selectors.append(sel)
    stutter = b.new_var()
    for i in range(codec.bits):
        pre, post = 2 + i, 2 + codec.bits + i
        b.add([-stutter, -pre, post])
        b.add([-stutter, pre, -post])
    b.add(selectors + [stutter])
    return b.template()


def _build_predicate(codec: PackedCodec, expr: Expr,
                     negate: bool) -> _Template:
    """A single-frame template asserting *expr* definitely true
    (``negate=False``) or definitely false (``negate=True`` -- the
    violation target: value 0 AND no EvalError, mirroring the explicit
    checker, which propagates evaluation errors instead of reporting
    them as violations)."""
    b = _Builder(codec, frames=1)
    v, e = b.guard(expr)
    root = b.define_and([-v, -e]) if negate else b.define_and([v, -e])
    if root == _FALSE:
        b.add([])  # unsatisfiable template
    elif root != _TRUE:
        b.add([root])
    return b.template()


def _build_validity(codec: PackedCodec) -> _Template:
    """Forbid the unused codes of every field whose domain size is not
    a power of two (frame bits must decode to real domain values)."""
    b = _Builder(codec, frames=1)
    for name in codec.variables:
        size = len(codec.values[name])
        for code in range(size, 1 << codec.width[name]):
            b.add(b._neq_code_lits(name, code, False))
    return b.template()


class Translation:
    """The full BMC translation of one (spec, invariant) pair.

    ``assemble(k)`` stamps the templates into a concrete CNF for
    unrolling depth *k*: init at frame 0, transitions between
    consecutive frames, domain validity everywhere, and the invariant's
    definite falsehood at frame *k*.  ``decode_model`` turns a
    satisfying assignment back into the list of concrete frame states
    via ``PackedCodec.decode``.
    """

    def __init__(self, spec, invariant: Expr):
        problem = support_problem(spec)
        if problem is not None:
            raise SymbolicUnsupported(problem)
        if invariant.primed_vars():
            raise SymbolicUnsupported(
                f"invariant {invariant!r} mentions primed variables")
        self.spec = spec
        self.invariant = invariant
        self.codec = PackedCodec(spec.universe)
        self.bits = self.codec.bits
        try:
            self.trans = _build_transition(self.codec, spec)
            self.init = _build_predicate(self.codec, spec.init, negate=False)
            self.bad = _build_predicate(self.codec, invariant, negate=True)
        except Untabulable as exc:
            raise SymbolicUnsupported(str(exc)) from None
        self.valid = _build_validity(self.codec)

    # -- assembly ------------------------------------------------------------

    def assemble(self, depth: int) -> Tuple[int, List[List[int]]]:
        """(num_vars, clauses) for unrolling depth *depth* (>= 0)."""
        frames = depth + 1
        num_vars = 1 + frames * self.bits
        clauses: List[List[int]] = [[1]]

        def stamp(template: _Template, frame: int) -> None:
            nonlocal num_vars
            # template variable -> CNF variable: TRUE, frame bits, aux
            first = 2 + frame * self.bits
            to = [0, 1, *range(first, first + template.interface),
                  *range(num_vars + 1, num_vars + 1 + template.num_aux)]
            num_vars += template.num_aux
            clauses.extend([to[lit] if lit > 0 else -to[-lit] for lit in clause]
                           for clause in template.clauses)

        stamp(self.init, 0)
        for frame in range(frames):
            stamp(self.valid, frame)
        for frame in range(depth):
            stamp(self.trans, frame)
        stamp(self.bad, depth)
        return num_vars, clauses

    # -- decoding ------------------------------------------------------------

    def decode_model(self, model: List[bool], depth: int) -> List[State]:
        """The concrete state at each frame of a satisfying assignment."""
        states = []
        for frame in range(depth + 1):
            start = 2 + frame * self.bits
            packed = 0
            for i in range(self.bits):
                if model[start + i]:
                    packed |= 1 << i
            states.append(self.codec.decode(packed))
        return states
