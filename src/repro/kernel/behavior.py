"""Behaviors: finite prefixes and lasso-shaped infinite behaviors.

The paper's semantics is over *infinite* sequences of states (behaviors);
its safety machinery (closure ``C``, the operators ``⊳``, ``+v``, ``⊥``)
additionally quantifies over *finite* behaviors -- prefixes.

For mechanical checking we represent infinite behaviors as **lassos**:
ultimately periodic sequences ``s_0 .. s_{k-1} (s_k .. s_{n-1})^ω``.  Lassos
are exactly the behaviors an explicit-state model checker can exhibit as
counterexamples, and every satisfiable formula in our fragment has a lasso
model, so evaluating formulas on lassos loses nothing for our purposes.

A lasso with a single self-looping final state represents a behavior that
eventually *stutters forever* -- the extension used when converting a finite
behavior to an infinite one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .state import State


class FiniteBehavior:
    """A nonempty finite sequence of states (the paper's "finite behavior")."""

    __slots__ = ("states",)

    def __init__(self, states: Sequence[State]):
        if not states:
            raise ValueError("a FiniteBehavior must contain at least one state")
        if not all(isinstance(s, State) for s in states):
            raise TypeError("FiniteBehavior elements must be State instances")
        self.states: Tuple[State, ...] = tuple(states)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, index: int) -> State:
        return self.states[index]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteBehavior):
            return self.states == other.states
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.states)

    def prefix(self, length: int) -> "FiniteBehavior":
        if not (1 <= length <= len(self.states)):
            raise ValueError(f"prefix length {length} out of range 1..{len(self.states)}")
        return FiniteBehavior(self.states[:length])

    def extend(self, state: State) -> "FiniteBehavior":
        return FiniteBehavior(self.states + (state,))

    def steps(self) -> Iterator[Tuple[State, State]]:
        for i in range(len(self.states) - 1):
            yield self.states[i], self.states[i + 1]

    def stutter_forever(self) -> "Lasso":
        """The infinite behavior that follows this prefix and then stutters."""
        return Lasso(self.states, loop_start=len(self.states) - 1)

    def __repr__(self) -> str:
        return f"FiniteBehavior(len={len(self.states)})"


class Lasso:
    """An ultimately periodic infinite behavior.

    ``Lasso(states, loop_start=k)`` denotes the infinite behavior

        ``states[0] .. states[k-1] (states[k] .. states[-1])^ω``

    The loop is nonempty (``loop_start < len(states)``).  Position arithmetic
    (:meth:`position`, :meth:`successor_position`) folds arbitrary indices of
    the infinite behavior back into the finite representation; temporal
    formula evaluation only ever touches the ``len(states)`` canonical
    positions.
    """

    __slots__ = ("states", "loop_start")

    def __init__(self, states: Sequence[State], loop_start: int):
        if not states:
            raise ValueError("a Lasso must contain at least one state")
        if not (0 <= loop_start < len(states)):
            raise ValueError(
                f"loop_start {loop_start} out of range 0..{len(states) - 1}"
            )
        if not all(isinstance(s, State) for s in states):
            raise TypeError("Lasso elements must be State instances")
        self.states: Tuple[State, ...] = tuple(states)
        self.loop_start = loop_start

    # -- basic geometry -------------------------------------------------

    @property
    def length(self) -> int:
        """Number of canonical positions (stem + one copy of the loop)."""
        return len(self.states)

    @property
    def loop_length(self) -> int:
        return len(self.states) - self.loop_start

    def position(self, index: int) -> int:
        """Fold an index of the infinite behavior to a canonical position."""
        if index < len(self.states):
            return index
        return self.loop_start + (index - self.loop_start) % self.loop_length

    def state(self, index: int) -> State:
        return self.states[self.position(index)]

    def successor_position(self, pos: int) -> int:
        """The canonical position following canonical position *pos*."""
        if pos + 1 < len(self.states):
            return pos + 1
        return self.loop_start

    def positions(self) -> range:
        return range(len(self.states))

    def loop_positions(self) -> range:
        return range(self.loop_start, len(self.states))

    def suffix_positions(self, start: int) -> Iterator[int]:
        """Canonical positions of states occurring at index >= start."""
        for pos in range(start, len(self.states)):
            yield pos
        # states of the loop situated before `start` still occur later
        for pos in range(self.loop_start, min(start, len(self.states))):
            yield pos

    def steps_from(self, start: int) -> Iterator[Tuple[int, int]]:
        """All (pos, succ) step pairs occurring at or after position *start*.

        Each canonical step is yielded once.
        """
        seen = set()
        for pos in self.suffix_positions(start):
            succ = self.successor_position(pos)
            if (pos, succ) not in seen:
                seen.add((pos, succ))
                yield pos, succ

    def loop_steps(self) -> Iterator[Tuple[int, int]]:
        """The step pairs of the loop (those that occur infinitely often)."""
        for pos in self.loop_positions():
            yield pos, self.successor_position(pos)

    # -- derived behaviors ----------------------------------------------

    def prefix(self, length: int) -> FiniteBehavior:
        """The first *length* states of the infinite behavior."""
        if length < 1:
            raise ValueError("prefix length must be >= 1")
        return FiniteBehavior([self.state(i) for i in range(length)])

    def unroll(self, copies: int) -> "Lasso":
        """An equivalent lasso with the loop repeated *copies* times.

        Useful when searching for hidden-variable witnesses whose period is
        a multiple of the visible loop's period.
        """
        if copies < 1:
            raise ValueError("copies must be >= 1")
        loop = self.states[self.loop_start:]
        return Lasso(self.states + loop * (copies - 1), self.loop_start)

    def rotate_loop_to(self, pos: int) -> "Lasso":
        """An equivalent lasso whose stem extends to canonical position *pos*.

        Requires ``pos >= loop_start``.  The stem is lengthened by walking
        around the loop, which does not change the denoted behavior.
        """
        if pos < self.loop_start:
            raise ValueError("can only rotate the loop entry forward")
        if pos == self.loop_start:
            return self
        loop = self.states[self.loop_start:]
        offset = pos - self.loop_start
        new_states = self.states[: self.loop_start] + loop[:offset] + loop[offset:] + loop[:offset]
        return Lasso(new_states[: self.loop_start + offset + len(loop)],
                     loop_start=self.loop_start + offset)

    def map_states(self, fn) -> "Lasso":
        """A lasso whose states are ``fn(state)`` -- e.g. a refinement mapping."""
        return Lasso([fn(s) for s in self.states], self.loop_start)

    def project(self, names: Iterable[str]) -> "Lasso":
        wanted = tuple(names)
        return self.map_states(lambda s: s.restrict(wanted))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Lasso):
            return self.states == other.states and self.loop_start == other.loop_start
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.states, self.loop_start))

    def __repr__(self) -> str:
        return f"Lasso(stem={self.loop_start}, loop={self.loop_length})"


def lasso_from_stem_and_loop(stem: Sequence[State], loop: Sequence[State]) -> Lasso:
    """Build a lasso from an explicit stem and nonempty loop."""
    if not loop:
        raise ValueError("loop must be nonempty")
    return Lasso(list(stem) + list(loop), loop_start=len(stem))


def all_lassos(states: Sequence[State], max_stem: int, max_loop: int) -> Iterator[Lasso]:
    """Enumerate lassos over the given state set, up to the given bounds.

    Exhaustive and exponential: used by the brute-force semantic checker
    (DESIGN.md, ABL-DIRECT) on tiny universes only.
    """
    pool: List[State] = list(states)

    def sequences(length: int) -> Iterator[Tuple[State, ...]]:
        if length == 0:
            yield ()
            return
        for prefix in sequences(length - 1):
            for state in pool:
                yield prefix + (state,)

    for stem_len in range(0, max_stem + 1):
        for loop_len in range(1, max_loop + 1):
            for stem in sequences(stem_len):
                for loop in sequences(loop_len):
                    yield lasso_from_stem_and_loop(stem, loop)
