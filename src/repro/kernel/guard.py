"""One three-valued guard over packed fields.

A guard has three values on a pair of packed rows: 0, 1 and :data:`ERR`
(it raised ``EvalError``).  :meth:`Guards.build` turns an ``Expr`` into
a DAG, deduplicated on ``Expr.key()``, that the successor walker
interprets (``node.value``), the CNF encoder turns into clauses, and
``check_invariant_compact`` reads as one :class:`Leaf`.  Children are
read left to right, and one not reached is never evaluated:

=================  =============================================
node               value
=================  =============================================
``And(a, ...)``    the first child that is not 1, else 1
``Or(a, ...)``     the first child that is not 0, else 0
``Not(a)``         ERR if a is ERR, else 1 - a
``Implies(a, b)``  ERR if a is ERR, 1 if a is 0, else b
``Equiv(a, b)``    ERR if a or b is ERR, else 1 iff a = b
leaf               ``Expr.holds``: 1 or 0; ERR on ``EvalError``
                   or a non-Boolean value
=================  =============================================

Any other expression is a leaf, quantifiers included, memoized on its
*footprint* (``packed & pmask``, and ``cand & cmask`` if it reads primed
variables): lazily for the walker, or over its support's whole domain
product (:meth:`Leaf.table`) for CNF.  A :class:`Field` reads a binding
or check ``name' = expr`` the same way, to a code or :data:`DEAD`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .expr import And, Env, Equiv, EvalError, Expr, Implies, Not, Or
from .state import State

__all__ = ["DEAD", "ERR", "MAX_LEAF_SUPPORT", "AndNode", "EquivNode",
           "Field", "Guards", "ImpliesNode", "Leaf", "NotNode", "OrNode",
           "Untabulable"]

#: The third guard value: the guard raised ``EvalError``.
ERR = 2

#: A field's code where its expression raises ``EvalError`` or leaves
#: the variable's domain: the branch dies there.
DEAD = -1

#: A table may span at most this many (pre x post) domain combinations;
#: beyond it the enumeration stops paying for itself.
MAX_LEAF_SUPPORT = 4096


class Untabulable(ValueError):
    """A leaf reads too many combinations, or a name the codec lacks."""


class Leaf:
    """A guard leaf: *expr* read on its footprint, to 0, 1 or ERR."""

    __slots__ = ("expr", "codec", "pmask", "cmask", "memo", "rows")

    def __init__(self, expr: Expr, codec):
        self.expr = expr
        self.codec = codec
        self.pmask = codec.mask_of(expr.free_vars())
        self.cmask = codec.mask_of(expr.primed_vars())
        self.memo: Dict[object, int] = {}
        self.rows = None  # the table, once CNF has asked for it

    def read(self, env: Env) -> int:
        try:
            return 1 if self.expr.holds(env) else 0
        except EvalError:
            return ERR

    def value(self, packed: int, cand, ctx) -> int:
        """The walker's read, memoized per footprint; *ctx* decodes."""
        key = ((packed & self.pmask, cand & self.cmask) if self.cmask
               else packed & self.pmask)
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = self.read(ctx.env(packed, cand))
        return v

    def describe(self) -> str:
        return f"leaf {self.expr!r}"

    def table(self) -> Tuple[List[Tuple[str, bool]], List[Tuple]]:
        """``(support, rows)``: the (name, primed) fields *expr* reads,
        unprimed first, and a ``(codes, read)`` row per combination of
        their codes, in domain-product order."""
        if self.rows is not None:
            return self.rows
        codec, expr = self.codec, self.expr
        support = [(name, False) for name in sorted(expr.free_vars())]
        support += [(name, True) for name in sorted(expr.primed_vars())]
        count = 1
        for name, _primed in support:
            if name not in codec.shift:
                raise Untabulable(f"leaf {expr!r} reads {name!r}, which is "
                                  f"not a packed state variable")
            count *= len(codec.values[name])
        if count > MAX_LEAF_SUPPORT:
            raise Untabulable(f"{self.describe()} reads {count} domain "
                              f"combinations (cap {MAX_LEAF_SUPPORT})")
        rows = []
        for codes in itertools.product(*[range(len(codec.values[name]))
                                         for name, _primed in support]):
            pre, post = {}, {}
            for (name, primed), code in zip(support, codes):
                (post if primed else pre)[name] = codec.values[name][code]
            rows.append((codes, self.read(Env(
                State._trusted(pre), State._trusted(post) if post else None))))
        self.rows = support, rows
        return self.rows


class Field(Leaf):
    """A binding or check ``name' = expr`` (*expr* prime-free), read as
    the code *expr* yields or DEAD; ``ident`` marks ``name' = name``."""

    __slots__ = ("name", "shift", "fmask", "ident")

    def __init__(self, name: str, expr: Expr, codec):
        super().__init__(expr, codec)
        self.name = name
        self.shift = codec.shift[name]
        self.fmask = (1 << codec.width[name]) - 1
        self.ident = (type(expr).__name__ == "Var" and not expr.primed
                      and expr.name == name)

    def read(self, env: Env) -> int:
        try:
            value = self.expr.eval(env)
        except EvalError:
            return DEAD
        try:
            code = self.codec.codes[self.name].get(value)
        except TypeError:  # unhashable: no domain value
            return DEAD
        return DEAD if code is None else code

    def describe(self) -> str:
        return f"binding {self.name}' = {self.expr!r}"


class _Connective:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children


class AndNode(_Connective):
    __slots__ = ()

    def value(self, packed, cand, ctx):
        for child in self.children:
            v = child.value(packed, cand, ctx)
            if v != 1:
                return v
        return 1


class OrNode(_Connective):
    __slots__ = ()

    def value(self, packed, cand, ctx):
        for child in self.children:
            v = child.value(packed, cand, ctx)
            if v != 0:
                return v
        return 0


class NotNode(_Connective):
    __slots__ = ()

    def value(self, packed, cand, ctx):
        v = self.children[0].value(packed, cand, ctx)
        return v if v == ERR else 1 - v


class ImpliesNode(_Connective):
    __slots__ = ()

    def value(self, packed, cand, ctx):
        v = self.children[0].value(packed, cand, ctx)
        if v == 1:
            return self.children[1].value(packed, cand, ctx)
        return v if v == ERR else 1


class EquivNode(_Connective):
    __slots__ = ()

    def value(self, packed, cand, ctx):
        a = self.children[0].value(packed, cand, ctx)
        if a == ERR:
            return ERR
        b = self.children[1].value(packed, cand, ctx)
        return b if b == ERR else int(a == b)


_KINDS = ((And, AndNode), (Or, OrNode), (Not, NotNode),
          (Implies, ImpliesNode), (Equiv, EquivNode))


class Guards:
    """One codec's guard nodes and fields, each built once per
    ``Expr.key()`` so that every reader shares its memo."""

    def __init__(self, codec):
        self.codec = codec
        self._nodes, self._fields, self._built = {}, {}, {}

    def build(self, expr: Expr):
        """*expr*'s node, looked up once per expression object (the entry
        pins *expr*, so its id is not recycled); a connective's key is put
        together from its children's, as ``Expr.key`` does, not re-walked."""
        hit = self._built.get(id(expr))
        if hit is None:
            kind = next((n for k, n in _KINDS if isinstance(expr, k)), Leaf)
            args = [] if kind is Leaf else [self.build(a) for a in expr.args]
            if kind is Leaf or type(expr).key is not Expr.key:
                key = expr.key()  # a leaf, or CNF's expanded quantifier
            else:
                key = (type(expr).__name__,) + tuple(
                    self._built[id(a)][2] for a in expr.args)
            node = self._nodes.get(key)
            if node is None:
                node = self._nodes[key] = (
                    Leaf(expr, self.codec) if kind is Leaf else kind(args))
            hit = self._built[id(expr)] = (expr, node, key)
        return hit[1]

    def field(self, name: str, expr: Expr) -> Field:
        key = (name, expr.key())
        if key not in self._fields:
            self._fields[key] = Field(name, expr, self.codec)
        return self._fields[key]
