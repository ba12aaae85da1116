"""Packed state encoding and the one successor walker.

A dict-backed :class:`~repro.kernel.state.State` per visited state is
convenient -- every layer can evaluate expressions against states
directly -- but it caps exploration around 10^4-10^5 states: each state
costs a dict, a tuple of items, and boxed values.  TLC's classic answer
(Yu, Manolios, Lamport, *Model Checking TLA+ Specifications*) is to
explore on fingerprints and regenerate anything else on demand.

This module supplies the kernel half of that engine:

* :class:`PackedCodec` -- a bijection between the states of a finite
  :class:`~repro.kernel.state.Universe` and bit-packed Python ints.
  Each variable gets a fixed field of ``ceil(log2(|domain|))`` bits
  holding the index of its value in domain enumeration order.  A state
  is then *one int*: hashable, picklable, and orders of magnitude
  smaller than a ``State``.
* :class:`PackedPlan` -- a compiled successor relation over packed ints.
  It walks the plan tree of a :class:`~repro.kernel.action.SuccessorPlan`
  and reads every guard, binding and check through
  :mod:`repro.kernel.guard`, memoized on the packed *footprint* each
  guard leaf or field actually reads (``packed & mask``).  It is the
  only successor walker: ``SuccessorPlan.successors`` runs it, and
  ``SuccessorPlan.enabled`` runs its witness walk.

The codec also computes ``State.fingerprint()``-compatible fingerprints
directly from packed ints: the FNV-1a fold of a state is a fixed word
sequence per (variable, value), so the per-value word lists are
precomputed at codec build time.  :meth:`PackedCodec.fingerprints` folds
a whole run of rows at once, one row per 128-bit lane of a Python big
int, so each FNV step is three big-int operations for every row.

Universes that cannot be packed (no variables, empty or huge domains,
unfingerprintable values) raise :class:`CompactUnsupported`: no engine
enumerates their successors.
"""

from __future__ import annotations

import itertools
import json
from array import array
from hashlib import sha256
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .action import SuccessorPlan, compile_action
from .expr import Env
from .guard import DEAD, Guards
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
           "support_problem"]

#: Refuse to enumerate domains larger than this when building a codec --
#: the code table would dwarf the states it is meant to compress.
MAX_DOMAIN_SIZE = 1 << 20

#: Rows per lane-parallel fingerprint pass: 1,024 lanes of 128 bits keep
#: each temporary big int at 16 KB.  Passes of 1,024-4,096 rows fold at
#: the same cost per row; smaller ones pay more per-pass overhead.
FP_CHUNK = 1024

#: One 128-bit lane holding 1: ``_LANE_ONE * n`` is the broadcast of 1.
_LANE_ONE = (1).to_bytes(16, "little")


class CompactUnsupported(ValueError):
    """The universe cannot be packed, so no engine can explore it."""


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
                 "values", "bits", "_fp_seed", "_fp_table")

    def __init__(self, universe: Universe, max_domain: int = MAX_DOMAIN_SIZE):
        self.universe = universe
        self.variables = universe.variables
        if not self.variables:
            raise CompactUnsupported(
                "the universe declares no variables; nothing to pack")
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
                        f"too large to pack")
            if not vals:
                raise CompactUnsupported(
                    f"variable {name!r} has an empty domain; nothing to "
                    f"pack")
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
        # in field order.  Each variable contributes one (shift, mask,
        # words-per-code, shared, shortest, longest) row: the first
        # ``shared`` words are the same for every code (the name's words
        # at least), and the codes' lists have ``shortest..longest`` words.
        self._fp_seed = _fold(_FNV_OFFSET, (0x7C, len(self.variables)))
        table = []
        for name in self.variables:
            name_words = [0x7C, 2] + _value_words(name)
            try:
                per_code = tuple(
                    tuple(name_words + _value_words(value))
                    for value in self.values[name])
            except TypeError as exc:
                raise CompactUnsupported(str(exc)) from None
            # the common prefix of all lists is that of the least and
            # the greatest (lexicographically)
            low, high = min(per_code), max(per_code)
            shared = next((i for i, (a, b) in enumerate(zip(low, high))
                           if a != b), len(low))
            lengths = [len(words) for words in per_code]
            table.append((self.shift[name], (1 << self.width[name]) - 1,
                          per_code, shared, min(lengths), max(lengths)))
        self._fp_table = tuple(table)

    def mask_of(self, names: Iterable[str]) -> int:
        """The packed-int mask covering *names* (unknown names ignored)."""
        m = 0
        for name in names:
            if name in self.shift:
                m |= ((1 << self.width[name]) - 1) << self.shift[name]
        return m

    def encode(self, state: State) -> int:
        """*state*'s packed row; ``ValueError`` names a variable whose
        value lies outside its domain (or is missing)."""
        p = 0
        try:
            for name in self.variables:
                p |= self.codes[name][state[name]] << self.shift[name]
        except KeyError:
            if name not in state:
                raise ValueError(
                    f"the state has no value for variable {name!r}") from None
            raise ValueError(f"variable {name!r} has value {state[name]!r}, "
                             f"outside its domain") from None
        return p

    def decode(self, packed: int) -> State:
        return State._trusted({
            name: self.values[name][(packed >> self.shift[name])
                                    & ((1 << self.width[name]) - 1)]
            for name in self.variables})

    def fingerprint(self, packed: int) -> int:
        """``State.fingerprint()`` of the decoded state, without decoding:
        a batch of one (see :meth:`fingerprints`)."""
        return self.fingerprints([packed])[0]

    def fingerprints(self, rows: Sequence[int]) -> List[int]:
        """``State.fingerprint()`` of each row's decoded state, in order.

        Folds :data:`FP_CHUNK` rows per pass, each row's 64-bit hash in
        its own 128-bit lane of one big int ``h``, so the FNV step
        ``h = ((h ^ w) * P) & MASK64`` runs for every row in three
        big-int operations (``h * P`` < 2**105: no carry crosses a lane).
        A word every code of a variable shares is XORed as the broadcast
        ``w * REP``; a varying word is spread into the lanes through an
        ``array('Q')``.  Where a variable's codes have word lists of
        different lengths, a lane mask keeps the rows whose list has
        ended unchanged.  A field code beyond its domain raises
        ``IndexError``."""
        out: List[int] = []
        for lo in range(0, len(rows), FP_CHUNK):
            out += self._fold_lanes(rows[lo:lo + FP_CHUNK])
        return out

    def _fold_lanes(self, rows: Sequence[int]) -> List[int]:
        n = len(rows)
        rep = int.from_bytes(_LANE_ONE * n, "little")
        full = rep * _MASK64
        h = self._fp_seed * rep
        spread = array("Q", bytes(16 * n))   # low halves carry the words
        broadcast: Dict[int, int] = {}
        for shift, mask, per_code, shared, shortest, longest \
                in self._fp_table:
            for word in per_code[0][:shared]:
                wide = broadcast.get(word)
                if wide is None:
                    wide = broadcast[word] = word * rep
                h = ((h ^ wide) * _FNV_PRIME) & full
            words = [per_code[(p >> shift) & mask] for p in rows]
            for j in range(shared, shortest):
                spread[::2] = array("Q", map(itemgetter(j), words))
                h = ((h ^ int.from_bytes(spread, "little"))
                     * _FNV_PRIME) & full
            for j in range(shortest, longest):
                # a row whose list has ended keeps its lane unchanged
                spread[::2] = array("Q", [w[j] if len(w) > j else 0
                                          for w in words])
                stepped = (h ^ int.from_bytes(spread, "little")) * _FNV_PRIME
                spread[::2] = array("Q", [len(w) > j for w in words])
                live = int.from_bytes(spread, "little") * _MASK64
                h = (stepped & live) | (h & (full ^ live))
        lanes = array("Q", h.to_bytes(16 * n, "little"))
        return lanes[::2].tolist()

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


def support_problem(spec_or_universe) -> Optional[str]:
    """Why the packed engines cannot represent this spec (or bare
    universe), or ``None`` when :class:`PackedCodec` can be built.

    ``CompactUnsupported`` is raised only while building the codec, so
    whether a spec can be packed is a pure function of its universe:
    callers that refuse a spec up front (the symbolic translator) share
    this probe instead of constructing a throwaway plan and catching.
    """
    universe = getattr(spec_or_universe, "universe", spec_or_universe)
    try:
        PackedCodec(universe)
    except CompactUnsupported as exc:
        return str(exc)
    return None


# -- the walker ---------------------------------------------------------------


def _field_row(field) -> tuple:
    """How the walker reads a :class:`~repro.kernel.guard.Field`: (shift,
    field mask, footprint mask, memo, field, identity?), unpacked at once."""
    return (field.shift, field.fmask, field.pmask, field.memo, field,
            field.ident)


class _Node:
    """One reached node of the plan tree over packed ints: its guards,
    its bindings and checks (as :func:`_field_row` rows) and its
    out-of-frame mask; then, once a state first passes them, either its
    sub-nodes and rank fields or its step guards, free codes and keep
    masks (:meth:`PackedPlan._grow`); its free-product offsets only once
    a successor walk enumerates it."""

    __slots__ = ("bp", "pre", "bindings", "checks", "fixed", "det_mask",
                 "children", "rank", "post", "free", "needed", "keep",
                 "wkeep", "offsets")

    def __init__(self, bp, det_mask: int, owner: "PackedPlan"):
        mask_of = owner.codec.mask_of
        self.bp = bp
        guards = owner.guards
        self.pre = [guards.build(expr) for expr in bp.pre_constraints]
        self.bindings = [_field_row(guards.field(name, expr))
                         for name, expr in bp.bindings]
        self.checks = [_field_row(guards.field(name, expr))
                       for name, expr in bp.checks]
        self.fixed = mask_of(bp.fixed_bound)
        self.det_mask = det_mask | mask_of(
            name for name, _expr in bp.bindings)
        self.children = self.post = self.offsets = None


class PackedPlan:
    """A compiled next-state relation over packed ints.

    Built on a :class:`~repro.kernel.action.SuccessorPlan` (whose
    ``successors`` runs its own, :attr:`~SuccessorPlan.packed`) or on a
    spec's next-state action.  It walks that plan's tree: it
    builds no branch analysis of its own, and a node's sub-plans grow
    there when a state first reaches it here.  Each reached node is
    compiled once, and its work is memoized per footprint:

    * unprimed guard conjuncts run before bindings (they kill most
      branches without touching candidate generation);
    * deterministic bindings cache the *code* their expression yields
      on each footprint (``DEAD`` for EvalError / out-of-domain), and
      the determined codes are handed down to sub-plans as bits;
    * an expanded node collects its sub-plans' candidates and emits them
      in its free-variable domain-product order (``rank`` over codes);
      only where the plan itself enumerates does the free product run,
      with primed constraints as guards against each candidate.

    :meth:`enabled` walks the same nodes for one witness (see
    :meth:`_emit`).  Guard leaves and fields are shared across nodes
    through one :class:`~repro.kernel.guard.Guards`, so a frame conjunct
    of every branch is evaluated once per footprint, not once per
    branch.  ``candidates`` counts candidates assembled before the step
    guards, by both walks.
    """

    def __init__(self, source):
        # no reference back to the plan: a PackedPlan (and its memos)
        # dies with its owner, not with the plan's compiled action
        plan = source if isinstance(source, SuccessorPlan) else \
            compile_action(source.next_action).plan(source.universe)
        self.codec = PackedCodec(plan.universe)
        self.candidates = 0
        self.guards = Guards(self.codec)
        self.roots = [_Node(bp, 0, self) for bp in plan.branch_plans]
        self._state = self._cand = self._cstate = None

    def env(self, packed: int, cand: Optional[int]) -> Env:
        """The guards' decode context: the source row, decoded at most
        once per :meth:`successors` call, and the last candidate."""
        if self._state is None:
            self._state = self.codec.decode(packed)
        if cand is not None and cand != self._cand:
            self._cstate = self.codec.decode(cand)
            self._cand = cand
        return Env(self._state, None if cand is None else self._cstate)

    def successors(self, packed: int) -> List[int]:
        self._state = self._cand = None
        out: List[int] = []
        self._emit(self.roots, packed, 0, out)
        return list(dict.fromkeys(out)) if len(out) > 1 else out

    def enabled(self, packed: int) -> bool:
        """ENABLED on *packed*: does some candidate pass a node's step
        guards?  The witness walk of :meth:`_emit`."""
        self._state = self._cand = None
        return self._emit(self.roots, packed, 0, None, True)

    def _emit(self, nodes: List[_Node], packed: int, det_bits: int,
              out: Optional[List[int]], witness: bool = False) -> bool:
        """Append each of *nodes*' passing candidates on *packed* to
        *out*, on top of the codes their ancestors determined
        (*det_bits*), each node's in its domain-product order.

        A *witness* walk instead returns True at the first passing
        candidate (False when there is none).  It descends into expanded
        children without ranking, and at an enumerating node it varies
        only the free variables some step guard reads primed
        (``free_needed``), lazily; every other free variable keeps the
        row's own code, which is in its domain, so it is as good a
        witness as any.  It never builds the free product."""
        for node in nodes:
            alive = True
            for g in node.pre:
                if g.value(packed, None, self) != 1:
                    alive = False
                    break
            if not alive:
                continue
            bits = det_bits
            for shift, width_m, mask, memo, field, ident in node.bindings:
                if ident:
                    code = (packed >> shift) & width_m
                else:
                    key = packed & mask
                    code = memo.get(key)
                    if code is None:
                        code = memo[key] = field.read(self.env(packed, None))
                    if code == DEAD:
                        alive = False
                        break
                bits |= code << shift
            if not alive:
                continue
            for shift, width_m, mask, memo, field, _i in node.checks:
                key = packed & mask
                code = memo.get(key)
                if code is None:
                    code = memo[key] = field.read(self.env(packed, None))
                if code != (bits >> shift) & width_m:
                    alive = False
                    break
            if not alive or (bits ^ packed) & node.fixed:
                continue  # dead, or an out-of-frame variable would change
            if node.children is None and node.post is None:
                self._grow(node)
            if node.children is not None:
                if witness:
                    if self._emit(node.children, packed, bits, None, True):
                        return True
                    continue
                found: List[int] = []
                self._emit(node.children, packed, bits, found)
                collected: Dict[int, int] = {}
                for cand in found:
                    if cand not in collected:
                        rank = 0
                        for shift, width_m, width in node.rank:
                            rank = (rank << width) | (cand >> shift) & width_m
                        collected[cand] = rank
                out += sorted(collected, key=collected.__getitem__)
                continue
            if witness:
                base = (packed & node.wkeep) | bits
                offsets = self._tried(node.needed)
            else:
                base = (packed & node.keep) | bits
                offsets = node.offsets
                if offsets is None:
                    offsets = node.offsets = [
                        sum(combo) for combo in itertools.product(*node.free)]
                self.candidates += len(offsets)
            for offset in offsets:
                cand = base | offset
                for g in node.post:
                    if g.value(packed, cand, self) != 1:
                        break
                else:
                    if witness:
                        return True
                    out.append(cand)
        return False

    def _tried(self, free: List[List[int]]) -> Iterable[int]:
        """The domain product of *free*, one offset at a time, each
        counted in ``candidates`` as it is tried."""
        for combo in itertools.product(*free):
            self.candidates += 1
            yield sum(combo)

    def _grow(self, node: _Node) -> None:
        """Compile what follows *node*'s checks, once a state gets there:
        its sub-nodes when the plan expands it, else its step guards and
        each free variable's codes, as bits to OR into a candidate.  The
        free product itself (``offsets``) is left to :meth:`_emit`."""
        c, bp = self.codec, node.bp
        if bp.expanded is not None:
            node.children = [_Node(sub, node.det_mask, self)
                             for sub in bp.expanded]
            node.rank = [(c.shift[name], (1 << c.width[name]) - 1,
                          c.width[name]) for name in bp.free_names]
            return
        node.post = [self.guards.build(expr) for expr in bp.step_constraints]
        node.free = [[code << c.shift[name]
                      for code in range(len(c.values[name]))]
                     for name in bp.free_names]
        node.needed = [node.free[i] for i in bp.free_needed]
        node.keep = ~(node.det_mask | c.mask_of(bp.free_names))
        node.wkeep = ~(node.det_mask | c.mask_of(
            bp.free_names[i] for i in bp.free_needed))
