"""Seeded generator of the ``serve`` workload's mini-TLA modules.

The family is a token ring: ``n`` nodes, node ``i`` owns a counter
``ci`` over ``0..b`` that it may bump while it holds the token, and the
holder may pass the token on.  Every valuation is reachable, so the
answers are known in closed form::

    states = n * (b+1)**n
    edges  = states + n * b * (b+1)**(n-1)      (one pass + the bumps)

and of the four invariants three hold and ``NotAllFull`` is violated by
a shortest trace of ``n*b + n`` states (``n*b`` bumps, ``n-1`` passes).

The seed decides which module gets which ``(n, b)``, which invariant
pair and which uniqueness tag -- not *how many* of each: every seed
draws the same multiset, so a round is the same amount of work whatever
the seed.  The server only ever sees the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: ring shapes ``(n, b)``: 2,187, 3,000 and 2,500 states, 0.33-0.48 s
#: alone through the service.  The band is narrow on purpose: with
#: shapes from 1k to 5k states (0.16-0.9 s) a small module's latency was
#: set by whatever the other client had in flight, and the median check
#: moved 17.5 % between seeds.
SHAPES: Tuple[Tuple[int, int], ...] = ((3, 8), (3, 9), (4, 4))
#: invariant pairs; ``NotAllFull`` is the violated one
PAIRS: Tuple[Tuple[str, str], ...] = (
    ("TokValid", "Bounded"),
    ("TokValid", "NotAllFull"),
    ("SumBounded", "Bounded"),
)
HOLDING = ("TokValid", "Bounded", "SumBounded")

MISSES_PER_ROUND = 25
HITS_PER_ROUND = 12


@dataclass(frozen=True)
class RingModule:
    n: int
    b: int
    invariants: Tuple[str, str]
    tag: str

    @property
    def shape(self) -> str:
        return f"ring-{self.n}-{self.b}"

    @property
    def states(self) -> int:
        return self.n * (self.b + 1) ** self.n

    @property
    def edges(self) -> int:
        return self.states + self.n * self.b * (self.b + 1) ** (self.n - 1)

    @property
    def violation_trace_len(self) -> int:
        return self.n * self.b + self.n

    def source(self) -> str:
        n, b = self.n, self.b
        counters = [f"c{i}" for i in range(n)]
        every = ", ".join(["tok"] + counters)
        lines = [
            f"MODULE Ring_{self.tag}",
            "VARIABLE " + ", ".join(
                [f"tok \\in 0..{n - 1}"]
                + [f"{c} \\in 0..{b}" for c in counters]),
            "Init == tok = 0 /\\ "
            + " /\\ ".join(f"{c} = 0" for c in counters),
        ]
        for i, c in enumerate(counters):
            others = ", ".join(["tok"] + [o for o in counters if o != c])
            lines.append(f"Work{i} == tok = {i} /\\ {c} < {b} /\\ "
                         f"{c}' = {c} + 1 /\\ UNCHANGED <<{others}>>")
        lines += [
            f"Pass == tok' = (tok + 1) % {n} /\\ "
            f"UNCHANGED <<{', '.join(counters)}>>",
            "Next == " + " \\/ ".join(
                [f"Work{i}" for i in range(n)] + ["Pass"]),
            f"Spec == Init /\\ [][Next]_<<{every}>>",
            f"TokValid == tok < {n}",
            "Bounded == " + " /\\ ".join(f"{c} <= {b}" for c in counters),
            f"SumBounded == {' + '.join(counters)} <= {n * b}",
            "NotAllFull == ~("
            + " /\\ ".join(f"{c} = {b}" for c in counters) + ")",
        ]
        return "\n".join(lines) + "\n"


def _tag(rng: random.Random) -> str:
    return f"{rng.getrandbits(48):012x}"


def round_modules(seed: int, round_index: int
                  ) -> Tuple[List[RingModule], List[RingModule]]:
    """``(misses, hits)`` of one round: 25 never-seen modules, then 12
    of them again.  Same ``(seed, round_index)`` -> byte-identical
    text; the tag makes every module new to the server's cache."""
    rng = random.Random(f"serve/{seed}/{round_index}")
    recipes = [(SHAPES[k % len(SHAPES)], PAIRS[k // len(SHAPES) % len(PAIRS)])
               for k in range(MISSES_PER_ROUND)]
    rng.shuffle(recipes)
    misses = [RingModule(n, b, pair, _tag(rng)) for (n, b), pair in recipes]
    hits = rng.sample(misses, HITS_PER_ROUND)
    return misses, hits


def probe_module(n: int, b: int, tag: str) -> RingModule:
    """A module outside every round (the layer probes' own)."""
    return RingModule(n, b, PAIRS[0], tag)
