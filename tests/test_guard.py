"""One three-valued guard, read two ways, checked against ``Expr.holds``.

``kernel/guard.py`` states the 0 / 1 / ERR semantics of a guard once;
the successor walker interprets its DAG and the CNF encoder turns the
same DAG into clauses.  Over seeded random universes and guards --
including leaves that raise ``EvalError`` on some rows (a division by
zero, an ill-typed comparison) or on every row (a non-Boolean value),
``Implies``, ``Equiv`` and nested quantifiers -- every pair of rows of
the universe must get the same value from

* ``Expr.holds`` (``EvalError`` read as ERR),
* the walker's ``node.value(packed, cand, ctx)``, and
* the CNF, with the pair's bits as unit clauses, solved by the CDCL
  backend -- and no other value may be satisfiable there.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.cnf import _Builder
from repro.engine.sat import CdclBackend
from repro.kernel.expr import (
    And,
    Arith,
    Cmp,
    Const,
    Env,
    Eq,
    Equiv,
    EvalError,
    Exists,
    Expr,
    Forall,
    IfThenElse,
    Implies,
    Not,
    Or,
    Var,
)
from repro.kernel.guard import ERR, Guards
from repro.kernel.packed import PackedCodec
from repro.kernel.state import Universe

from .test_property_random_specs import random_guard, random_universe

SEEDS = 40
DEPTH = 3


def random_leaf(rng: random.Random, universe: Universe) -> Expr:
    name = rng.choice(universe.variables)
    other = rng.choice(universe.variables)
    const = rng.choice(list(universe.domain(name).values()))
    kind = rng.randrange(10)
    if kind == 0:
        # reads the candidate row
        return Eq(Var(name, primed=True), Var(other))
    if kind == 1:
        return Cmp("<", Var(name, primed=True), Var(other))
    if kind == 2:
        # ERR where *other* is 0: division by zero
        return Eq(Arith("%", Var(name), Var(other)), Const(0))
    if kind == 3:
        # ERR where name = const: an ill-typed comparison
        return Cmp("<=", IfThenElse(Eq(Var(name), Const(const)),
                                    Const("a"), Var(other)), Const(1))
    if kind == 4:
        # ERR on every row: a non-Boolean value
        return Arith("+", Var(name), Const(1))
    return random_guard(rng, universe)


def random_formula(rng: random.Random, universe: Universe,
                   depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.2:
        return random_leaf(rng, universe)
    kind = rng.randrange(7)
    sub = [random_formula(rng, universe, depth - 1)
           for _ in range(rng.randint(2, 3))]
    if kind == 0:
        return And(*sub)
    if kind == 1:
        return Or(*sub)
    if kind == 2:
        return Not(sub[0])
    if kind == 3:
        return Implies(sub[0], sub[1])
    if kind == 4:
        return Equiv(sub[0], sub[1])
    # a quantifier whose body reads the bound variable: it errs where
    # the body's division meets name = 0
    name = rng.choice(universe.variables)
    quant = Exists if kind == 5 else Forall
    body = Or(Eq(Arith("%", Var("k"), Var(name)), Const(0)), sub[0]) \
        if rng.random() < 0.5 else And(Cmp("<=", Var("k"), Var(name)), sub[0])
    return quant("k", universe.domain(name), body)


class Pair:
    """The walker's decode context (``PackedPlan.env``) for one pair of
    rows, decoded up front."""

    def __init__(self, pre, post):
        self.pre, self.post = pre, post

    def env(self, packed, cand):
        return Env(self.pre, None if cand is None else self.post)


def reference(expr: Expr, env: Env) -> int:
    try:
        return 1 if expr.holds(env) else 0
    except EvalError:
        return ERR


def units(codec: PackedCodec, p: int, q: int):
    """Unit clauses pinning a two-frame template's pre bits to *p* and
    its post bits to *q* (template variable 1 is TRUE)."""
    bits = codec.bits
    return [[1]] + [[2 + i if (p >> i) & 1 else -(2 + i)]
                    for i in range(bits)] \
        + [[2 + bits + i if (q >> i) & 1 else -(2 + bits + i)]
           for i in range(bits)]


def solved(num_vars, clauses, value: int, err: int) -> int:
    """The 0/1/ERR the CNF gives, and no other is satisfiable."""
    model = CdclBackend().solve(num_vars, clauses)
    assert model is not None, "the pinned rows must satisfy the encoding"

    def true(lit: int) -> bool:
        return model[abs(lit)] == (lit > 0)

    got = ERR if true(err) else int(true(value))
    assert not (true(err) and true(value)), "err forces value false"
    block = {ERR: [-err], 1: [-value, err], 0: [value, err]}[got]
    assert CdclBackend().solve(num_vars, clauses + [block]) is None, \
        "the encoding must determine the guard's value"
    return got


@pytest.mark.parametrize("seed", range(SEEDS))
def test_walker_and_cnf_agree_on_every_pair_of_rows(seed):
    rng = random.Random(seed)
    universe = random_universe(rng)
    codec = PackedCodec(universe)
    guard = random_formula(rng, universe, depth=DEPTH)
    node = Guards(codec).build(guard)
    builder = _Builder(codec, frames=2)
    value, err = builder.guard(guard)
    template = builder.template()
    num_vars = template.interface + 1 + template.num_aux
    states = list(universe.states())
    seen = set()
    for pre in states:
        p = codec.encode(pre)
        for post in states:
            q = codec.encode(post)
            want = reference(guard, Env(pre, post))
            assert node.value(p, q, Pair(pre, post)) == want, \
                (seed, guard, pre, post)
            assert solved(num_vars, template.clauses + units(codec, p, q),
                          value, err) == want, (seed, guard, pre, post)
            seen.add(want)
    assert seen, "the universe has rows"


def test_the_panel_mixes_the_three_values():
    """Guards that read one value everywhere test little: several seeds
    above meet 0, 1 and ERR at the root, each on some pair of rows."""
    mixed = 0
    for seed in range(SEEDS):
        rng = random.Random(seed)
        universe = random_universe(rng)
        guard = random_formula(rng, universe, depth=DEPTH)
        states = list(universe.states())
        mixed += len({reference(guard, Env(pre, post))
                      for pre in states for post in states}) == 3
    assert mixed >= 4


def test_leaves_and_fields_dedupe_on_the_expression_key():
    universe = Universe({"x": random_universe(random.Random(0)).domain("x")})
    guards = Guards(PackedCodec(universe))
    a = guards.build(And(Eq(Var("x"), Const(0)), Not(Eq(Var("x"), Const(1)))))
    b = guards.build(Or(Eq(Var("x"), Const(1)), Eq(Var("x"), Const(0))))
    assert a.children[0] is b.children[1]
    assert a.children[1].children[0] is b.children[0]
    assert guards.field("x", Var("x")) is guards.field("x", Var("x"))
