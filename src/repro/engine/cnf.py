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

Guard expressions are compiled with the same three-valued (0 / 1 / ERR)
semantics as ``packed.py``'s guard trees: every connective node carries
a (value, err) literal pair, ``err`` propagates in short-circuit order,
and a branch selector asserts ``value AND NOT err`` for each conjunct --
an ``EvalError`` anywhere disables the branch, exactly as
``SuccessorPlan.successors`` treats it.  Leaves are compiled by
enumerating their (tiny) support -- the product of the domains they
read -- into one clause per combination; quantifiers are expanded over
their finite domains first, which is what keeps leaf supports tiny.
Specs whose leaves read unboundedly large supports raise
:class:`SymbolicUnsupported`; callers fall back to the explicit engine.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..kernel.action import compile_action
from ..kernel.expr import (
    And,
    Const,
    Env,
    Equiv,
    EvalError,
    Exists,
    Expr,
    Forall,
    Implies,
    Not,
    Or,
    Var,
)
from ..kernel.packed import PackedCodec, support_problem
from ..kernel.state import State

__all__ = ["SymbolicUnsupported", "Translation"]

_ERR = 2  # third truth value, matching packed.py's guard trees
_DEAD = object()  # EvalError sentinel: matches no domain value

# A leaf may read at most this many (pre x post) domain combinations;
# beyond it the enumeration encoding stops paying for itself and the
# caller should use the explicit engine instead.
MAX_LEAF_SUPPORT = 4096
# Total encoded connective/leaf instances per template (quantifier
# expansion can explode; this bounds the translation, not the solver).
MAX_NODES = 200_000

_TRUE = 1
_FALSE = -1


class SymbolicUnsupported(Exception):
    """This spec cannot be translated to CNF; use the explicit engine."""


class _Template:
    """Clauses over an abstract frame interface.

    Template variable 1 is the global TRUE constant; variables
    ``2 .. interface+1`` are the frame bits (pre block then, for
    two-frame templates, post block); anything above is auxiliary and
    renumbered fresh per instantiation.
    """

    __slots__ = ("interface", "num_aux", "clauses")

    def __init__(self, interface: int, num_aux: int,
                 clauses: List[List[int]]):
        self.interface = interface
        self.num_aux = num_aux
        self.clauses = clauses


class _Builder:
    """Accumulates template clauses and the three-valued encoding."""

    def __init__(self, codec: PackedCodec, frames: int,
                 max_leaf_support: int = MAX_LEAF_SUPPORT):
        self.codec = codec
        self.bits = codec.bits
        self.frames = frames
        self.interface = frames * codec.bits
        self._next = self.interface + 2
        self.clauses: List[List[int]] = []
        self.max_leaf_support = max_leaf_support
        self.nodes = 0
        self._registry: Dict[object, Tuple[int, int]] = {}

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

    def _tick(self) -> None:
        self.nodes += 1
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

    # -- three-valued expression encoding ------------------------------------
    #
    # encode() returns a (value, err) literal pair with the invariant
    # that err=true forces value=false; err is the constant FALSE for
    # subtrees that provably cannot raise EvalError, which keeps the
    # common all-total case free of error plumbing.

    def encode(self, expr: Expr) -> Tuple[int, int]:
        key = expr.key()
        cached = self._registry.get(key)
        if cached is not None:
            return cached
        self._tick()
        pair = self._encode(expr)
        self._registry[key] = pair
        return pair

    def _encode(self, expr: Expr) -> Tuple[int, int]:
        if isinstance(expr, And):
            return self._encode_and([self.encode(a) for a in expr.args])
        if isinstance(expr, Or):
            return self._encode_or([self.encode(a) for a in expr.args])
        if isinstance(expr, Not):
            v, e = self.encode(expr.arg)
            return self.define_and([-v, -e]), e
        if isinstance(expr, Implies):
            va, ea = self.encode(expr.args[0])
            vb, eb = self.encode(expr.args[1])
            err = self.define_or([ea, self.define_and([va, eb])])
            val = self.define_or([self.define_and([-va, -ea]),
                                  self.define_and([va, vb])])
            return val, err
        if isinstance(expr, Equiv):
            va, ea = self.encode(expr.args[0])
            vb, eb = self.encode(expr.args[1])
            err = self.define_or([ea, eb])
            val = self.define_or([
                self.define_and([va, vb]),
                self.define_and([-va, -ea, -vb, -eb])])
            return val, err
        if isinstance(expr, Exists):
            return self._encode_or(
                [self.encode(expr.body.substitute({expr.var: Const(value)}))
                 for value in expr.domain.values()])
        if isinstance(expr, Forall):
            return self._encode_and(
                [self.encode(expr.body.substitute({expr.var: Const(value)}))
                 for value in expr.domain.values()])
        return self._encode_leaf(expr)

    def _encode_and(self, pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
        # value: all children true.  err: some child errs while every
        # child *before* it is true (short-circuit order, as in
        # packed._AndNode / Expr.holds).
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

    # -- leaves --------------------------------------------------------------

    def _support(self, expr: Expr) -> List[Tuple[str, bool]]:
        names = [(name, False) for name in sorted(expr.free_vars())]
        names += [(name, True) for name in sorted(expr.primed_vars())]
        for name, _primed in names:
            if name not in self.codec.shift:
                raise SymbolicUnsupported(
                    f"leaf {expr!r} reads {name!r}, which is not a "
                    f"packed state variable")
        return names

    def _enumerate(self, expr: Expr, support: List[Tuple[str, bool]]):
        """Yield ``(codes, value)`` over the leaf's support product,
        where value is 0/1/_ERR exactly as ``packed._Leaf`` computes it."""
        count = 1
        for name, _primed in support:
            count *= len(self.codec.values[name])
        if count > self.max_leaf_support:
            raise SymbolicUnsupported(
                f"leaf {expr!r} reads {count} domain combinations "
                f"(cap {self.max_leaf_support})")
        ranges = [range(len(self.codec.values[name]))
                  for name, _primed in support]
        for codes in itertools.product(*ranges):
            pre: Dict[str, object] = {}
            post: Dict[str, object] = {}
            for (name, primed), code in zip(support, codes):
                target = post if primed else pre
                target[name] = self.codec.values[name][code]
            env = Env(State._trusted(pre),
                      State._trusted(post) if post else None)
            try:
                value = 1 if expr.holds(env) else 0
            except EvalError:
                value = _ERR
            yield codes, value

    def _encode_leaf(self, expr: Expr) -> Tuple[int, int]:
        if isinstance(expr, Const):
            if expr.value is True:
                return _TRUE, _FALSE
            if expr.value is False:
                return _FALSE, _FALSE
        unchanged = self._as_unchanged(expr)
        if unchanged is not None:
            eqs = [self.define_or([
                       self.define_and([self.bit(unchanged, i, False),
                                        self.bit(unchanged, i, True)]),
                       self.define_and([-self.bit(unchanged, i, False),
                                        -self.bit(unchanged, i, True)])])
                   for i in range(self.codec.width[unchanged])]
            return self.define_and(eqs), _FALSE
        support = self._support(expr)
        rows = list(self._enumerate(expr, support))
        seen = {value for _codes, value in rows}
        if seen == {1}:
            return _TRUE, _FALSE
        if seen == {0}:
            return _FALSE, _FALSE
        if seen == {_ERR}:
            return _FALSE, _TRUE
        val = self.new_var()
        err = self.new_var() if _ERR in seen else _FALSE
        for codes, value in rows:
            differs: List[int] = []
            for (name, primed), code in zip(support, codes):
                differs.extend(self._neq_code_lits(name, code, primed))
            self.add(differs + [val if value == 1 else -val])
            if err != _FALSE:
                self.add(differs + [err if value == _ERR else -err])
        return val, err

    def _as_unchanged(self, expr: Expr) -> Optional[str]:
        """``x' = x`` (either orientation) -- encoded as bit equality
        instead of a |domain|^2 enumeration."""
        if type(expr).__name__ != "Eq" or len(expr.args) != 2:
            return None
        lhs, rhs = expr.args
        if (isinstance(lhs, Var) and isinstance(rhs, Var)
                and lhs.name == rhs.name and lhs.primed != rhs.primed
                and lhs.name in self.codec.shift):
            return lhs.name
        return None

    def encode_assignment(self, name: str, expr: Expr) -> int:
        """The CNF value of binding/check ``name' = expr`` (*expr*
        prime-free, per ``_as_binding``).

        Enumerates only *expr*'s pre-state support: each combination
        either determines a valid code for ``name`` (value literal
        biconditional with "post field = code") or is dead -- EvalError
        and out-of-domain results disable the branch exactly as
        ``SuccessorPlan.successors`` drops those candidates.
        """
        self._tick()
        support = self._support(expr)
        width = self.codec.width[name]
        codes = self.codec.codes[name]
        count = 1
        for sname, _primed in support:
            count *= len(self.codec.values[sname])
        if count > self.max_leaf_support:
            raise SymbolicUnsupported(
                f"binding {name}' = {expr!r} reads {count} domain "
                f"combinations (cap {self.max_leaf_support})")
        val = self.new_var()
        ranges = [range(len(self.codec.values[sname]))
                  for sname, _primed in support]
        for combo in itertools.product(*ranges):
            pre: Dict[str, object] = {}
            for (sname, _primed), code in zip(support, combo):
                pre[sname] = self.codec.values[sname][code]
            differs: List[int] = []
            for (sname, primed), code in zip(support, combo):
                differs.extend(self._neq_code_lits(sname, code, primed))
            try:
                value = expr.eval(Env(State._trusted(pre)))
            except EvalError:
                value = _DEAD
            try:
                target = codes.get(value)
            except TypeError:
                target = None  # unhashable result can match no code
            if target is None:
                self.add(differs + [-val])
                continue
            for i in range(width):
                bit = self.bit(name, i, True)
                lit = bit if (target >> i) & 1 else -bit
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
        conjuncts: List[Tuple[int, int]] = []
        for name, expr, _domain in bp.bindings:
            conjuncts.append((b.encode_assignment(name, expr), _FALSE))
        for name, expr in bp.checks:
            conjuncts.append((b.encode_assignment(name, expr), _FALSE))
        for expr in bp.pre_constraints + bp.step_constraints:
            conjuncts.append(b.encode(expr))
        dead = False
        for v, e in conjuncts:
            if v == _FALSE or e == _TRUE:
                dead = True
                break
        if dead:
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
    v, e = b.encode(expr)
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
        if self.bits == 0:
            raise SymbolicUnsupported(
                "universe packs to zero bits; nothing to solve")
        self.trans = _build_transition(self.codec, spec)
        self.init = _build_predicate(self.codec, spec.init, negate=False)
        self.bad = _build_predicate(self.codec, invariant, negate=True)
        self.valid = _build_validity(self.codec)

    # -- assembly ------------------------------------------------------------

    def assemble(self, depth: int) -> Tuple[int, List[List[int]]]:
        """(num_vars, clauses) for unrolling depth *depth* (>= 0)."""
        frames = depth + 1
        num_vars = 1 + frames * self.bits
        clauses: List[List[int]] = [[1]]

        def stamp(template: _Template, frame: int) -> None:
            nonlocal num_vars
            base = num_vars - template.interface - 1
            num_vars += template.num_aux
            bits = self.bits
            start = 1 + frame * bits
            for clause in template.clauses:
                mapped = []
                for lit in clause:
                    a = abs(lit)
                    if a == 1:
                        g = 1
                    elif a <= template.interface + 1:
                        g = start + a - 1
                    else:
                        g = base + a
                    mapped.append(g if lit > 0 else -g)
                clauses.append(mapped)

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
