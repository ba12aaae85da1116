"""Packed state encoding and fingerprint-only successor plans.

The full explorer keeps one dict-backed :class:`~repro.kernel.state.State`
per visited state.  That is convenient -- every layer can evaluate
expressions against states directly -- but it caps exploration around
10^4-10^5 states: each state costs a dict, a tuple of items, and boxed
values.  TLC's classic answer (Yu, Manolios, Lamport, *Model Checking
TLA+ Specifications*) is to explore on fingerprints and regenerate
anything else on demand.

This module supplies the kernel half of that engine:

* :class:`PackedCodec` -- a bijection between the states of a finite
  :class:`~repro.kernel.state.Universe` and bit-packed Python ints.
  Each variable gets a fixed field of ``ceil(log2(|domain|))`` bits
  holding the index of its value in domain enumeration order.  A state
  is then *one int*: hashable, picklable, and orders of magnitude
  smaller than a ``State``.
* :class:`PackedPlan` -- a compiled successor relation over packed ints.
  It reuses the branch plans of :func:`~repro.kernel.action.compile_action`
  but memoizes every guard conjunct, binding, and check on the packed
  *footprint* it actually reads (``packed & mask``), so expression
  evaluation happens once per distinct footprint instead of once per
  state.  Guards are decomposed into a tree of And/Or/Not/Implies/Equiv
  nodes with memoized leaves; short-circuit order and ``EvalError``
  semantics mirror ``Expr.holds`` exactly, so the emitted successor sets
  are bit-for-bit those of :class:`~repro.kernel.action.SuccessorPlan`.

The codec also computes ``State.fingerprint()``-compatible fingerprints
directly from packed ints: the FNV-1a fold of a state is a fixed word
sequence per (variable, value), so the per-value word lists are
precomputed at codec build time and the hot path just folds ints.

Universes that cannot be packed (empty domains, non-enumerable or huge
domains) raise :class:`CompactUnsupported`; callers fall back to the
full engine.
"""

from __future__ import annotations

import itertools
import json
from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Tuple

from .action import compile_action
from .expr import And, Env, Equiv, EvalError, Expr, Implies, Not, Or
from .state import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _MASK64,
    State,
    Universe,
    _stable_hash,
    value_to_portable,
)

__all__ = ["CompactUnsupported", "PackedCodec", "PackedPlan",
           "support_problem", "supports"]

#: Refuse to enumerate domains larger than this when building a codec --
#: the code table would dwarf the states it is meant to compress.
MAX_DOMAIN_SIZE = 1 << 20

#: Three-valued guard result: 0 = False, 1 = True, ERR = EvalError.
_ERR = 2

#: Sentinel for a binding/check whose value falls outside the domain or
#: raises ``EvalError`` -- the branch dies for that footprint.
_DEAD = -1


class CompactUnsupported(Exception):
    """The universe or spec cannot be run on the compact engine."""


def _value_words(value: object) -> List[int]:
    """The FNV-1a word sequence ``_stable_hash`` folds for *value*.

    ``_stable_hash(value, h)`` folds a sequence of 64-bit words that
    depends only on *value*, never on the running hash ``h`` (the
    frozenset accumulator is built from fresh offsets, so it too is a
    constant of the value).  Precomputing the sequence lets the codec
    fingerprint packed states without materialising them.
    """
    if isinstance(value, bool):
        return [0xB1 + value]
    if isinstance(value, int):
        return [0x1E, value & _MASK64]
    if isinstance(value, str):
        return [0x5E] + list(value.encode("utf-8"))
    if isinstance(value, tuple):
        words = [0x7C, len(value)]
        for elem in value:
            words.extend(_value_words(elem))
        return words
    if isinstance(value, frozenset):
        acc = 0
        for elem in value:
            acc = (acc + _stable_hash(elem)) & _MASK64
        return [0xF5, len(value), acc]
    raise TypeError(f"cannot fingerprint {value!r}")


def _fold(h: int, words: Iterable[int]) -> int:
    for word in words:
        h = ((h ^ word) * _FNV_PRIME) & _MASK64
    return h


class PackedCodec:
    """Bit-packs the states of a finite universe into single ints.

    Variables occupy fixed, adjacent bit fields in sorted-name order
    (the same order ``Universe.variables`` exposes), each wide enough
    for an index into the domain's enumeration.  The packing is a
    bijection, so packed ints are exact state identities -- unlike
    64-bit fingerprints, interning on packed ints can never collide.
    """

    __slots__ = ("universe", "variables", "shift", "width", "codes",
                 "values", "bits", "_fp_prefix", "_fp_words", "_fp_seed",
                 "_fp_table")

    def __init__(self, universe: Universe, max_domain: int = MAX_DOMAIN_SIZE):
        self.universe = universe
        self.variables = universe.variables
        if not self.variables:
            raise CompactUnsupported(
                "compact engine needs at least one variable to pack")
        self.shift: Dict[str, int] = {}
        self.width: Dict[str, int] = {}
        self.codes: Dict[str, Dict[object, int]] = {}
        self.values: Dict[str, Tuple[object, ...]] = {}
        bit = 0
        for name in self.variables:
            vals = []
            for value in universe.domain(name).values():
                vals.append(value)
                if len(vals) > max_domain:
                    raise CompactUnsupported(
                        f"domain of {name!r} exceeds {max_domain} values; "
                        f"too large for the compact engine")
            if not vals:
                raise CompactUnsupported(
                    f"domain of {name!r} is empty; nothing to pack")
            self.values[name] = tuple(vals)
            self.codes[name] = {v: i for i, v in enumerate(vals)}
            w = max(1, (len(vals) - 1).bit_length())
            self.shift[name] = bit
            self.width[name] = w
            bit += w
        self.bits = bit
        # Fingerprint word tables: State.fingerprint() folds the sorted
        # item tuple, i.e. [0x7C, nvars] then per item [0x7C, 2] + the
        # name's words + the value's words.  Variables are already in
        # sorted order, so the per-(variable, code) sequences concatenate
        # in field order.
        self._fp_prefix = (0x7C, len(self.variables))
        self._fp_words: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
        for name in self.variables:
            name_words = [0x7C, 2] + _value_words(name)
            try:
                per_code = tuple(
                    tuple(name_words + _value_words(value))
                    for value in self.values[name])
            except TypeError as exc:
                raise CompactUnsupported(str(exc)) from None
            self._fp_words[name] = per_code
        # flattened fingerprint plan: the prefix fold is constant, and
        # each variable contributes one (shift, mask, words-per-code) row
        self._fp_seed = _fold(_FNV_OFFSET, self._fp_prefix)
        self._fp_table = tuple(
            (self.shift[name], (1 << self.width[name]) - 1,
             self._fp_words[name])
            for name in self.variables)

    def mask_of(self, names: Iterable[str]) -> int:
        """The packed-int mask covering *names* (unknown names ignored)."""
        m = 0
        for name in names:
            if name in self.shift:
                m |= ((1 << self.width[name]) - 1) << self.shift[name]
        return m

    def encode(self, state: State) -> int:
        p = 0
        for name in self.variables:
            p |= self.codes[name][state[name]] << self.shift[name]
        return p

    def decode(self, packed: int) -> State:
        return State._trusted({
            name: self.values[name][(packed >> self.shift[name])
                                    & ((1 << self.width[name]) - 1)]
            for name in self.variables})

    def fingerprint(self, packed: int) -> int:
        """``State.fingerprint()`` of the decoded state, without decoding.

        Hot path of the compact engine (every intern and digest step
        starts here), so the per-variable fold is flattened into one
        loop over a precomputed ``(shift, mask, words-per-code)`` table
        instead of per-variable dict lookups and ``_fold`` calls.  The fold sequence -- and therefore every
        fingerprint, digest, and golden -- is unchanged."""
        h = self._fp_seed
        for shift, mask, per_code in self._fp_table:
            for word in per_code[(packed >> shift) & mask]:
                h = ((h ^ word) * _FNV_PRIME) & _MASK64
        return h

    def signature(self) -> str:
        """A stable hash of the packing layout.

        Two codecs with the same signature encode every state to the
        same packed int, so checkpoints can verify on resume that the
        spec (and hence the layout) has not drifted.
        """
        doc = {
            "variables": list(self.variables),
            "domains": {name: [value_to_portable(v)
                               for v in self.values[name]]
                        for name in self.variables},
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode("utf-8")).hexdigest()


# -- supportability probe -----------------------------------------------------
#
# CompactUnsupported is raised only while building the codec, so whether a
# spec can be packed is a pure function of its universe.  Callers that gate
# an engine choice on packability (the check pipeline's choose_mode, the
# symbolic translator) share this
# probe instead of constructing a throwaway plan and catching.


def support_problem(spec_or_universe) -> Optional[str]:
    """Why the packed engines cannot represent this spec, or ``None``.

    Accepts a :class:`~repro.spec.Spec` or a bare universe.  Returns a
    human-readable reason string when packing is impossible (empty or
    oversized domains, unfingerprintable values, no variables) and
    ``None`` when :class:`PackedCodec` can be built.
    """
    universe = getattr(spec_or_universe, "universe", spec_or_universe)
    try:
        PackedCodec(universe)
    except CompactUnsupported as exc:
        return str(exc)
    return None


def supports(spec_or_universe) -> bool:
    """True when the packed engines (compact, symbolic) can represent
    this spec's universe."""
    return support_problem(spec_or_universe) is None


# -- guard trees --------------------------------------------------------------
#
# A branch constraint like  And(g1, Or(g2, g3))  is decomposed into a tree
# whose leaves memoize their own (typically tiny) packed footprints.  The
# frame conjuncts the action compiler attaches to each branch read nearly
# every variable, so memoizing whole constraints keys on nearly the full
# packed int and never hits; memoizing leaves recovers the sharing.
# Values are three-valued (0 / 1 / _ERR) so that short-circuit order and
# EvalError propagation match Expr.holds exactly: an ERR reaching the root
# rejects the candidate, just as SuccessorPlan treats an EvalError step.


class _Leaf:
    __slots__ = ("expr", "pmask", "cmask", "memo")

    def __init__(self, expr: Expr, codec: PackedCodec, registry: dict):
        self.expr = expr
        self.pmask = codec.mask_of(expr.free_vars())
        self.cmask = codec.mask_of(expr.primed_vars())
        self.memo = registry.setdefault(expr.key(), {})

    def value(self, packed, cand, ctx):
        if self.cmask:
            key = (packed & self.pmask, cand & self.cmask)
        else:
            key = packed & self.pmask
        v = self.memo.get(key)
        if v is None:
            try:
                v = 1 if self.expr.holds(ctx.env(packed, cand)) else 0
            except EvalError:
                v = _ERR
            self.memo[key] = v
        return v


class _AndNode:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children

    def value(self, packed, cand, ctx):
        for child in self.children:
            v = child.value(packed, cand, ctx)
            if v != 1:
                return v
        return 1


class _OrNode:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children

    def value(self, packed, cand, ctx):
        for child in self.children:
            v = child.value(packed, cand, ctx)
            if v != 0:
                return v
        return 0


class _NotNode:
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def value(self, packed, cand, ctx):
        v = self.child.value(packed, cand, ctx)
        return v if v == _ERR else 1 - v


class _ImpliesNode:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs

    def value(self, packed, cand, ctx):
        v = self.lhs.value(packed, cand, ctx)
        if v == _ERR:
            return _ERR
        if v == 0:
            return 1
        return self.rhs.value(packed, cand, ctx)


class _EquivNode:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs

    def value(self, packed, cand, ctx):
        a = self.lhs.value(packed, cand, ctx)
        if a == _ERR:
            return _ERR
        b = self.rhs.value(packed, cand, ctx)
        if b == _ERR:
            return _ERR
        return 1 if a == b else 0


def _build_guard(expr: Expr, codec: PackedCodec, registry: dict):
    if isinstance(expr, And):
        return _AndNode([_build_guard(a, codec, registry)
                         for a in expr.args])
    if isinstance(expr, Or):
        return _OrNode([_build_guard(a, codec, registry)
                        for a in expr.args])
    if isinstance(expr, Not):
        return _NotNode(_build_guard(expr.arg, codec, registry))
    if isinstance(expr, Implies):
        return _ImpliesNode(_build_guard(expr.args[0], codec, registry),
                            _build_guard(expr.args[1], codec, registry))
    if isinstance(expr, Equiv):
        return _EquivNode(_build_guard(expr.args[0], codec, registry),
                          _build_guard(expr.args[1], codec, registry))
    return _Leaf(expr, codec, registry)


class _Ctx:
    """Lazy decode cache for the current source state / candidate."""

    __slots__ = ("codec", "_packed", "_state", "_cand", "_cstate")

    def __init__(self, codec: PackedCodec):
        self.codec = codec
        self._packed = self._state = self._cand = self._cstate = None

    def begin(self, packed):
        self._packed = packed
        self._state = None
        self._cand = self._cstate = None

    def state(self, packed):
        if self._state is None:
            self._state = self.codec.decode(packed)
        return self._state

    def env(self, packed, cand):
        state = self.state(packed)
        if cand is None:
            return Env(state)
        if self._cand != cand or self._cstate is None:
            self._cstate = self.codec.decode(cand)
            self._cand = cand
        return Env(state, self._cstate)


class PackedPlan:
    """A compiled next-state relation over packed ints.

    ``successors(packed)`` emits exactly the packed encodings of
    ``SuccessorPlan.successors(decode(packed))``, in the same order.
    Branch machinery is memoized per footprint:

    * unprimed guard conjuncts run before bindings (they kill most
      branches without touching candidate generation);
    * deterministic bindings cache the *code* their expression yields
      on each footprint (``_DEAD`` for EvalError / out-of-domain);
    * primed constraints run as guard trees against each candidate.

    Memo tables are shared across branches through per-expression
    registries keyed on ``Expr.key()``, so a frame conjunct appearing in
    every branch is evaluated once per footprint, not once per branch.
    """

    def __init__(self, spec):
        self.spec = spec
        self.codec = PackedCodec(spec.universe)
        c = self.codec
        full = compile_action(spec.next_action).plan(spec.universe)
        registry: dict = {}
        bind_registry: dict = {}
        self.branches = []
        for bp in full.branch_plans:
            pre_guards = []
            post_guards = []
            for expr in bp.constraints:
                tree = _build_guard(expr, c, registry)
                if expr.primed_vars():
                    post_guards.append(tree)
                else:
                    pre_guards.append(tree)
            bindings = []
            det_index: Dict[str, int] = {}
            written = [n for n, _e, _d in bp.bindings] + list(bp.free_names)
            for name, expr, domain in bp.bindings:
                det_index[name] = len(bindings)
                ident = (type(expr).__name__ == "Var" and not expr.primed
                         and expr.name == name)
                memo = bind_registry.setdefault((name, expr.key()), {})
                bindings.append((name, c.shift[name],
                                 (1 << c.width[name]) - 1,
                                 c.mask_of(expr.free_vars()),
                                 memo, expr, domain, ident))
            checks = []
            for name, expr in bp.checks:
                memo = bind_registry.setdefault((name, expr.key()), {})
                checks.append((det_index[name],
                               c.mask_of(expr.free_vars()),
                               memo, expr, name))
            fixed = [(det_index[name], c.shift[name],
                      (1 << c.width[name]) - 1)
                     for name in bp.fixed_bound]
            free = [(c.shift[name],
                     tuple(c.codes[name][v] for v in values))
                    for name, values in zip(bp.free_names, bp.free_values)]
            self.branches.append((pre_guards, bindings, checks, fixed,
                                  free, post_guards, ~c.mask_of(written)))
        self.ctx = _Ctx(c)

    def successors(self, packed: int) -> List[int]:
        codes = self.codec.codes
        ctx = self.ctx
        ctx.begin(packed)
        out: List[int] = []
        for pre, bindings, checks, fixed, free, post, keep in self.branches:
            alive = True
            for g in pre:
                if g.value(packed, None, ctx) != 1:
                    alive = False
                    break
            if not alive:
                continue
            det_bits = 0
            det = []
            for name, shift, width_m, mask, memo, expr, domain, ident \
                    in bindings:
                if ident:
                    code = (packed >> shift) & width_m
                else:
                    key = packed & mask
                    code = memo.get(key)
                    if code is None:
                        try:
                            value = expr.eval_state(ctx.state(packed))
                        except EvalError:
                            code = _DEAD
                        else:
                            code = codes[name][value] if value in domain \
                                else _DEAD
                        memo[key] = code
                    if code == _DEAD:
                        alive = False
                        break
                det_bits |= code << shift
                det.append(code)
            if not alive:
                continue
            for idx, mask, memo, expr, name in checks:
                key = packed & mask
                code = memo.get(key)
                if code is None:
                    try:
                        value = expr.eval_state(ctx.state(packed))
                    except EvalError:
                        code = _DEAD
                    else:
                        code = codes[name].get(value, _DEAD)
                    memo[key] = code
                if code != det[idx]:
                    alive = False
                    break
            if not alive:
                continue
            for idx, shift, width_m in fixed:
                if det[idx] != (packed >> shift) & width_m:
                    alive = False
                    break
            if not alive:
                continue
            base = (packed & keep) | det_bits
            if not free:
                ok = True
                for g in post:
                    if g.value(packed, base, ctx) != 1:
                        ok = False
                        break
                if ok:
                    out.append(base)
                continue
            for combo in itertools.product(*[cods for _s, cods in free]):
                cand = base
                for (shift, _cods), code in zip(free, combo):
                    cand |= code << shift
                ok = True
                for g in post:
                    if g.value(packed, cand, ctx) != 1:
                        ok = False
                        break
                if ok:
                    out.append(cand)
        return out
