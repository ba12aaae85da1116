"""Ample/stubborn-set partial-order reduction over transition classes.

Given the :class:`~repro.checker.reduction.independence.Decomposition`
of a next-state action, :class:`AmpleReducer` prunes the successor set
expanded at each BFS state: instead of following every enabled
transition class, it follows a *stubborn* subset computed per state,
subject to the classic ample-set conditions:

* **C0 (nonemptiness)** -- the ample set contains an enabled class.
* **C1 (stubborn closure)** -- starting from a seed, every enabled
  member pulls in all classes statically *dependent* on it (footprint
  overlap), and every disabled member pulls in a *necessary enabling
  set*: the writers of a false guard's variables (nothing can enable
  the class before one of them fires), falling back to the writers of
  the class's whole read/write footprint when no extracted guard is
  false (enabledness -- including "has a non-self successor" -- is a
  function of the state restricted to that footprint).
* **C2 (invisibility)** -- no ample class writes an observed variable,
  so pruned interleavings are stutter-equivalent w.r.t. the property.
* **C3 (cycle proviso)** -- the closed-set BFS variant (Bošnački/
  Holzmann lineage), applied by the *coordinator* at merge time: if
  every non-stutter ample successor is already **closed** (expanded --
  equivalently, interned with a node id below the source, since BFS
  expands in id order), the state is re-expanded fully.  Successors
  still in the open queue are safe: a postponed class is carried to a
  strictly later-closing state, so the postponement chain terminates in
  a full expansion or an ample set containing the class.  This breaks
  the ignoring problem without needing a DFS stack, and because it is
  evaluated against the live graph in serial merge order it is
  bit-for-bit deterministic under any worker count.

A class is **enabled** here iff it has a *non-self* successor.  That is
deliberate and load-bearing for deadlock preservation: a class whose
only successor is the state itself must not certify an ample set as
"making progress", otherwise a reduced graph could show an outgoing
step where the full graph has a genuine deadlock.

C0+C1 make the ample set a stubborn set, so every pruned full run has a
Mazurkiewicz-equivalent run through the ample transition; with C2+C3 the
reduced graph is stutter-trace-equivalent to the full one, preserving
invariant verdicts, and C0/C1 alone preserve deadlocks.  Liveness and
refinement need the full graph and must not run on a reduced one -- the
callers in ``tools/cli.py`` auto-disable reduction for those checks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...kernel.action import SuccessorPlan, compile_action
from ...kernel.state import State
from ...spec import Spec
from .independence import Decomposition, decompose

__all__ = [
    "EXPAND_FULL",
    "EXPAND_AMPLE",
    "ReductionConfig",
    "AmpleReducer",
    "build_reducer",
    "proviso_successors",
]

# expansion tags shipped from workers to the coordinator
EXPAND_FULL = 0
EXPAND_AMPLE = 1


class ReductionConfig:
    """The user-facing reduction request: POR on, observing these vars.

    ``observed_vars`` are the variables the property being checked can
    see (free variables of the invariants; empty for deadlock-only
    runs): classes writing them are *visible* and never ample (C2).
    Instances are pickled into parallel-worker init payloads, so both
    sides derive identical reducers."""

    __slots__ = ("observed_vars",)

    def __init__(self, observed_vars: Tuple[str, ...] = ()):
        self.observed_vars = tuple(sorted(set(observed_vars)))

    def as_dict(self) -> Dict[str, object]:
        return {"por": True, "observed_vars": list(self.observed_vars)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ReductionConfig)
                and self.observed_vars == other.observed_vars)

    def __repr__(self) -> str:
        return f"ReductionConfig(observed_vars={self.observed_vars!r})"


class AmpleReducer:
    """Per-state ample-set computation over a usable decomposition.

    ``expand(state)`` is pure (same state -> same tag and successor
    list, in a deterministic order), which is what lets parallel workers
    run it independently while the coordinator applies the C3 proviso
    at merge time."""

    __slots__ = ("spec", "decomposition", "config", "full_plan",
                 "class_plans", "visible", "counters")

    def __init__(self, spec: Spec, decomposition: Decomposition,
                 config: ReductionConfig):
        self.spec = spec
        self.decomposition = decomposition
        self.config = config
        universe = spec.universe
        self.full_plan: SuccessorPlan = (
            compile_action(spec.next_action).plan(universe))
        self.class_plans: List[SuccessorPlan] = [
            compile_action(cls.action).plan(universe)
            for cls in decomposition.classes
        ]
        observed = frozenset(config.observed_vars)
        self.visible: List[bool] = []
        for cls in decomposition.classes:
            cls.visible = not cls.writes.isdisjoint(observed)
            self.visible.append(cls.visible)
        # coordinator-side merge accounting (see proviso_successors)
        self.counters: Dict[str, int] = {
            "ample_states": 0, "full_states": 0, "proviso_states": 0,
            "ample_successors": 0, "pruned_successors": 0,
        }

    # -- per-state ample computation -----------------------------------------

    def _necessary_enabling(self, index: int, state: State) -> FrozenSet[int]:
        """Classes that must fire before class *index* can gain a
        non-self successor (C1's disabled branch)."""
        dec = self.decomposition
        for guard, writers in dec.guard_writers[index]:
            try:
                holds = bool(guard.eval_state(state))
            except Exception:
                continue
            if not holds:
                # the guard is false now; only its writers can flip it
                return writers
        return dec.fallback_nes[index]

    def _closure(self, seed: int, enabled: List[bool],
                 state: State) -> Set[int]:
        """The stubborn closure of {seed} at *state* (C1).  The result
        is the least fixpoint, so the iteration order is irrelevant."""
        dec = self.decomposition
        members: Set[int] = {seed}
        stack = [seed]
        while stack:
            index = stack.pop()
            grow = (dec.dep[index] if enabled[index]
                    else self._necessary_enabling(index, state))
            for other in grow:
                if other not in members:
                    members.add(other)
                    stack.append(other)
        return members

    def expand(self, state: State) -> Tuple[int, List[State], int]:
        """(tag, successors, pruned-estimate) for one frontier state.

        ``EXPAND_AMPLE`` successors come from the smallest valid ample
        set (ties broken by lowest seed index) and the third element
        estimates how many non-self successors were pruned away;
        ``EXPAND_FULL`` means no proper ample set exists and the
        successors are the full plan's, in exactly the order a POR-off
        run would enumerate them."""
        succs: List[List[State]] = []
        enabled: List[bool] = []
        enabled_count = 0
        total_nonself = 0
        for plan in self.class_plans:
            class_succs = [t for t in plan.successors(state) if t != state]
            succs.append(class_succs)
            total_nonself += len(class_succs)
            is_enabled = bool(class_succs)
            enabled.append(is_enabled)
            if is_enabled:
                enabled_count += 1
        if enabled_count <= 1:
            return EXPAND_FULL, list(self.full_plan.successors(state)), 0

        best: Optional[List[int]] = None
        best_cost = -1
        for seed in range(len(enabled)):
            if not enabled[seed]:
                continue
            members = self._closure(seed, enabled, state)
            ample = [i for i in sorted(members) if enabled[i]]
            if len(ample) >= enabled_count:
                continue  # not a proper subset: no reduction from this seed
            if any(self.visible[i] for i in ample):
                continue  # C2: visible classes are never ample
            cost = sum(len(succs[i]) for i in ample)
            if best is None or cost < best_cost:
                best, best_cost = ample, cost
        if best is None:
            return EXPAND_FULL, list(self.full_plan.successors(state)), 0
        out: List[State] = []
        for i in best:
            out.extend(succs[i])
        # class successor lists can overlap across classes, so this is an
        # estimate of the pruning, not an exact count -- stats label it so
        return EXPAND_AMPLE, out, total_nonself - best_cost


def build_reducer(
    spec: Spec, config: Optional[ReductionConfig]
) -> Tuple[Optional[AmpleReducer], Optional[str]]:
    """(reducer, None) when reduction is possible, else (None, reason).

    Both the coordinator and every worker call this with identical
    (spec, config) payloads, so they agree on usability and on every
    per-state decision."""
    if config is None:
        return None, None
    decomposition = decompose(spec)
    if not decomposition.usable:
        return None, (decomposition.reason
                      or "decomposition yields a single class")
    return AmpleReducer(spec, decomposition, config), None


def proviso_successors(graph, src: int, tag: int, successors: List[State],
                       pruned: int, reducer: AmpleReducer) -> List[State]:
    """Coordinator-side half of one expanded source's merge: apply the
    C3 proviso against the live graph and return the successors to
    intern (the full set when every ample successor is closed).

    Called in serial BFS order by both the serial engine and the
    parallel coordinator, so the proviso decision -- and hence the
    reduced graph -- is identical under any worker count."""
    counters = reducer.counters
    if tag == EXPAND_AMPLE:
        lookup = graph.lookup
        # C3 (closed-set proviso): BFS expands nodes in node-id order, so
        # a successor is *closed* (already expanded) iff it was interned
        # with an id below src; new successors and open-queue successors
        # (id > src; self-successors are excluded from ample lists) close
        # strictly after src.  If every ample successor is closed, a
        # postponed class could be ignored around a cycle, so fall back
        # to the full set; otherwise the postponed-action chain always
        # moves to a later-closing state and must terminate in a full
        # expansion or an ample set containing the class.
        def _open(t: State) -> bool:
            node = lookup(t)
            return node is None or node > src

        if not any(_open(t) for t in successors):
            successors = list(
                reducer.full_plan.successors(graph.states[src]))
            counters["proviso_states"] += 1
        else:
            counters["ample_states"] += 1
            counters["ample_successors"] += len(successors)
            counters["pruned_successors"] += pruned
    else:
        counters["full_states"] += 1
    return successors
