"""A small stdlib SAT layer for the bounded symbolic engine.

:class:`CdclBackend` is a self-contained CDCL solver (two-watched
literals, 1UIP conflict learning, VSIDS-lite activity with phase
saving, geometric restarts).  Pure Python, no dependencies; tuned for
the tens-of-thousands-of-clauses formulas the translator emits, not
for competition instances.

``solve(num_vars, clauses, stats=None)`` returns a model -- a list
indexed ``1..num_vars`` of booleans (index 0 unused) -- or ``None``
for UNSAT.  Clauses are lists of nonzero DIMACS-style ints.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["CdclBackend"]


# -- CDCL ---------------------------------------------------------------------

_UNASSIGNED = -1
_RESTART_BASE = 100
_RESTART_GROWTH = 1.5


class _CdclState:
    """One solve() invocation's mutable state.

    Assignments are tracked per variable (`assign[v]` in {0, 1,
    _UNASSIGNED}); the trail stores DIMACS literals in assignment order.
    ``watches`` maps a literal to the clauses currently watching it;
    a clause is touched only when one of its two watched literals
    becomes false, which is what keeps propagation near-linear.
    """

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]]):
        n = num_vars
        self.num_vars = n
        self.assign: List[int] = [_UNASSIGNED] * (n + 1)
        self.level: List[int] = [0] * (n + 1)
        self.reason: List[Optional[int]] = [None] * (n + 1)
        self.activity: List[float] = [0.0] * (n + 1)
        self.phase: List[int] = [0] * (n + 1)  # saved polarity (0 -> False)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        # lazy max-heap over (-activity, var); stale/assigned entries are
        # skipped at pop time, duplicates keep the freshest score present
        self.order: List[Tuple[float, int]] = [(0.0, v)
                                               for v in range(1, n + 1)]
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.unsat = False
        self.seen: List[bool] = [False] * (n + 1)
        # effort counters
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0
        for clause in clauses:
            self._add_clause(list(clause))

    # -- clause database -----------------------------------------------------

    def _add_clause(self, lits: List[int]) -> None:
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.unsat = True
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.unsat = True
            return
        ref = len(self.clauses)
        self.clauses.append(out)
        self.watches.setdefault(out[0], []).append(ref)
        self.watches.setdefault(out[1], []).append(ref)

    def _attach_learnt(self, lits: List[int]) -> int:
        ref = len(self.clauses)
        self.clauses.append(lits)
        self.learned += 1
        if len(lits) > 1:
            self.watches.setdefault(lits[0], []).append(ref)
            self.watches.setdefault(lits[1], []).append(ref)
        return ref

    # -- assignment ----------------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v if lit > 0 else 1 - v

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._value(lit)
        if val != _UNASSIGNED:
            return val == 1
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or None."""
        assign = self.assign
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = -lit
            watchers = watches.get(false_lit)
            if not watchers:
                continue
            kept: List[int] = []
            i = 0
            n = len(watchers)
            while i < n:
                ref = watchers[i]
                i += 1
                c = clauses[ref]
                # normalise: the false literal sits at position 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = assign[first] if first > 0 else \
                    (_UNASSIGNED if assign[-first] == _UNASSIGNED
                     else 1 - assign[-first])
                if fv == 1:
                    kept.append(ref)
                    continue
                moved = False
                for k in range(2, len(c)):
                    other = c[k]
                    ov = assign[other] if other > 0 else \
                        (_UNASSIGNED if assign[-other] == _UNASSIGNED
                         else 1 - assign[-other])
                    if ov != 0:
                        c[1], c[k] = c[k], c[1]
                        w = watches.get(other)
                        if w is None:
                            watches[other] = [ref]
                        else:
                            w.append(ref)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ref)
                if not self._enqueue(first, ref):
                    # conflict: keep the untouched tail of the watch list
                    kept.extend(watchers[i:])
                    watches[false_lit] = kept
                    return ref
            watches[false_lit] = kept
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        heappush(self.order, (-act, var))
        if act > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self.order = [(-self.activity[v], v)
                          for v in range(1, self.num_vars + 1)
                          if self.assign[v] == _UNASSIGNED]
            self.order.sort()

    def _analyze(self, confl: int) -> (List[int], int):
        """First-UIP learning: returns the (learnt clause, backjump
        level).

        Relies on the propagation invariant that a reason clause's
        first literal is the one it propagated.
        """
        learnt: List[int] = [0]
        seen = self.seen
        cleanup: List[int] = []
        counter = 0
        p = 0
        index = len(self.trail) - 1
        current = len(self.trail_lim)
        while True:
            lits = self.clauses[confl]
            for q in (lits if p == 0 else lits[1:]):
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    cleanup.append(var)
                    self._bump(var)
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[abs(p)]
        learnt[0] = -p
        for var in cleanup:
            seen[var] = False
        if len(learnt) == 1:
            return learnt, 0
        # watch a highest-level literal besides the asserting one
        max_i = 1
        for k in range(2, len(learnt)):
            if self.level[abs(learnt[k])] > self.level[abs(learnt[max_i])]:
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        for lit in reversed(self.trail[bound:]):
            var = abs(lit)
            self.phase[var] = self.assign[var]
            self.assign[var] = _UNASSIGNED
            self.reason[var] = None
            heappush(self.order, (-self.activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # -- search --------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        order = self.order
        assign = self.assign
        while order:
            _neg_act, var = heappop(order)
            if assign[var] == _UNASSIGNED:
                return var if self.phase[var] == 1 else -var
        # the heap can run dry while unassigned vars remain (stale
        # entries were popped earlier); rebuild and retry once
        rebuilt = [(-self.activity[v], v)
                   for v in range(1, self.num_vars + 1)
                   if assign[v] == _UNASSIGNED]
        if not rebuilt:
            return None
        rebuilt.sort()
        self.order = rebuilt
        _neg_act, var = heappop(self.order)
        return var if self.phase[var] == 1 else -var

    def solve(self) -> Optional[List[int]]:
        if self.unsat:
            return None
        restart_limit = float(_RESTART_BASE)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                ref = self._attach_learnt(learnt)
                self._enqueue(learnt[0], ref if len(learnt) > 1 else None)
                self.var_inc *= 1.0 / 0.95
                if since_restart >= restart_limit:
                    self.restarts += 1
                    since_restart = 0
                    restart_limit *= _RESTART_GROWTH
                    self._backtrack(0)
                continue
            lit = self._pick_branch()
            if lit is None:
                return list(self.assign)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)


class CdclBackend:
    """The dependency-free solver the symbolic engine runs."""

    name = "cdcl"

    def solve(self, num_vars: int, clauses: Sequence[Sequence[int]],
              stats=None) -> Optional[List[bool]]:
        state = _CdclState(num_vars, clauses)
        assign = state.solve()
        if stats is not None:
            stats.record_solver(state.decisions, state.conflicts,
                                state.propagations, state.learned,
                                state.restarts)
        if assign is None:
            return None
        return [bool(v == 1) for v in assign]

