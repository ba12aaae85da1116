"""Breadth-first explicit-state exploration of canonical specifications.

:func:`initial_states` enumerates the states satisfying an initial
predicate, reusing the action compiler (the predicate's variables are
primed so equations become bindings); :func:`explore` builds the
reachable :class:`~repro.checker.graph.StateGraph` of a
:class:`~repro.spec.Spec` under its next-state action ``N`` (stuttering
self-loops are added by the graph itself).

The hot path is plan-driven: the next-state action is compiled **once
per run** into a :class:`~repro.kernel.packed.PackedPlan` specialised
to the spec's universe, and the engine expands packed rows, decoding
only the states it interns; each level's new states take their
fingerprints from one fold over their rows.  Pass an
:class:`~repro.checker.stats.ExploreStats` to collect throughput,
depth, and edge counts.

The level loop itself is :func:`repro.checker.bfs.drive`; this module
contributes the full-state engine seam (:class:`FullEngine`) and runs it
under the serial configuration.  Runs are durable: ``checkpoint=path``
appends a snapshot to a level log every ``checkpoint_every`` levels and
:func:`repro.checker.checkpoint.resume` continues a snapshot bit for
bit.

``reduction=ReductionConfig(...)`` (see :mod:`repro.checker.reduction`)
enables ample/stubborn-set partial-order reduction derived from the
paper's ``Disjoint`` decomposition -- sound for invariants and deadlock,
auto-disabled (with the reason recorded on the stats) when the action
shape is not reducible.  The POR-off path is byte-identical to the
unreduced explorer.
"""

from __future__ import annotations

from time import perf_counter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TYPE_CHECKING)

from ..kernel.action import compile_action
from ..kernel.expr import Expr, prime_expr, to_expr
from ..kernel.packed import PackedPlan
from ..kernel.state import State, Universe
from ..spec import Spec
from .bfs import RunOptions, Serial, drive
from .checkpoint import graph_header, graph_rows
from .graph import StateGraph, StateSpaceExplosion
from .stats import ExploreStats, maybe_phase

if TYPE_CHECKING:  # pragma: no cover - types only
    from .reduction.por import AmpleReducer, ReductionConfig

__all__ = ["StateSpaceExplosion", "initial_states", "explore"]


def initial_states(init: Expr, universe: Universe) -> Iterator[State]:
    """All states of *universe* satisfying the state predicate *init*.

    Implemented by priming the predicate and asking the packed walker
    for the successors of a dummy state, packed row 0: equations
    ``x = c`` become bindings ``x' = c``, so typical initial predicates
    enumerate without scanning the whole universe.  An unpackable
    universe raises :class:`~repro.kernel.packed.CompactUnsupported`.
    """
    init = to_expr(init)
    if init.primed_vars():
        raise ValueError(f"initial predicate contains primed variables: {init!r}")
    packed = compile_action(prime_expr(init)).plan(universe).packed
    yield from map(packed.codec.decode, packed.successors(0))


def _seed_graph(spec: Spec,
                max_states: int) -> Tuple[StateGraph, List[int]]:
    """A fresh graph holding the spec's initial states, plus the level-0
    frontier -- the common starting point of the serial and parallel
    explorers."""
    graph = StateGraph(spec.universe, max_states=max_states, name=spec.name)
    frontier: List[int] = []
    for state in initial_states(spec.init, spec.universe):
        node, new = graph.add_state(state)
        if new:
            graph.init_nodes.append(node)
            frontier.append(node)
    return graph, frontier


def _resolve_reducer(
    spec: Spec,
    reduction: Optional["ReductionConfig"],
    stats: Optional[ExploreStats],
) -> Optional["AmpleReducer"]:
    """Build the reducer for a run (or record why reduction is off)."""
    if reduction is None:
        return None
    from .reduction.por import build_reducer

    reducer, reason = build_reducer(spec, reduction)
    if stats is not None:
        if reducer is None:
            stats.record_reduction(enabled=False, reason=reason)
        else:
            stats.record_reduction(enabled=True)
    return reducer


class FullEngine:
    """The full-state engine seam of :mod:`repro.checker.bfs`: states
    are retained in a :class:`StateGraph`.

    Without a reducer the payloads are packed rows and ``expand`` is
    the packed walker.  With a *reducer*, each source state is expanded
    through its ample set, and
    :func:`repro.checker.reduction.por.proviso_successors` applies the
    C3 cycle proviso against the live graph -- on the coordinator, in
    merge order, so the reduced graph too is the same for every
    configuration.  Either way :meth:`merge` interns on the exact packed
    row, decoding only the states it adds.  No attribute holds a method
    of the engine itself, so the engine and its graph die by reference
    count."""

    tag = "full"

    def __init__(self, spec: Spec, graph: StateGraph,
                 reducer: Optional["AmpleReducer"] = None):
        self.spec = spec
        self.graph = graph
        self.reducer = reducer
        self.reduction = reducer.config if reducer is not None else None
        plan = PackedPlan(spec)
        self.codec = plan.codec
        self.rows: List[int] = list(map(self.codec.encode, graph.states))
        self.visited = {row: node for node, row in enumerate(self.rows)}
        self.settle(range(len(self.rows)))
        if reducer is None:
            self.payloads, self.expand, self.size = \
                self.rows, plan.successors, len
        else:
            self.payloads, self.expand = graph.states, reducer.expand
            self.size = lambda expanded: len(expanded[1])

    def merge(self, src: int, expanded) -> List[int]:
        """Intern one source's successors in order; returns the new node
        ids.  Edges, BFS parents and the graph's insertion-time budget
        follow the emission order, so every configuration builds the
        same graph."""
        graph, rows, visited = self.graph, self.rows, self.visited
        if self.reducer is not None:
            from .reduction.por import proviso_successors

            expanded = map(self.codec.encode, proviso_successors(
                graph, src, *expanded, self.reducer))
        decode = self.codec.decode
        new_nodes = []
        for row in expanded:
            dst = visited.get(row)
            if dst is None:
                dst = visited[row] = graph.add_state(decode(row), src)[0]
                rows.append(row)
                new_nodes.append(dst)
            graph.add_edge(src, dst)
        return new_nodes

    def settle(self, nodes: Sequence[int]) -> None:
        """Fingerprint the states of *nodes* (a level's new nodes) in one
        fold over their rows: no reader hashes a state value by value."""
        states, rows = self.graph.states, self.rows
        for node, fingerprint in zip(nodes, self.codec.fingerprints(
                [rows[node] for node in nodes])):
            states[node]._fp = fingerprint  # State.fingerprint()'s cache

    def header(self) -> Dict[str, object]:
        return graph_header(self.graph,
                            (self.reduction.as_dict()
                             if self.reduction is not None else None))

    def snapshot(self, nodes: range, sources: range) -> Dict[str, object]:
        return graph_rows(self.graph, nodes, sources)

    def finish(self, stats: Optional[ExploreStats]) -> None:
        """Fold the reducer's merge-time counters into graph/stats."""
        if self.reducer is None:
            return
        counters = self.reducer.counters
        self.graph.reduction_used = bool(counters["ample_states"])
        if stats is not None:
            stats.record_reduction(enabled=True, counters=counters)


def _explore_full(spec: Spec, max_states: int, stats: Optional[ExploreStats],
                  options: RunOptions,
                  reduction: Optional["ReductionConfig"],
                  configure: Callable[..., Serial],
                  start: float) -> StateGraph:
    """Seed a fresh full-state graph and drive it under the
    configuration *configure* builds -- the body shared by
    :func:`explore` and
    :func:`~repro.checker.parallel.explore_parallel`."""
    reducer = _resolve_reducer(spec, reduction, stats)
    graph, frontier = _seed_graph(spec, max_states)
    with maybe_phase(stats, "plan"):
        engine = FullEngine(spec, graph, reducer)
    return drive(configure(engine, stats, options), frontier, start)


def explore(
    spec: Spec,
    max_states: int = 200_000,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    reduction: Optional["ReductionConfig"] = None,
) -> StateGraph:
    """The reachable state graph of ``Init ∧ □[N]_v`` over the spec's universe.

    Edges are ``N`` steps (stutter self-loops implicit on every node).
    Variables outside ``v`` are treated like any other universe variable:
    whatever ``N`` allows.  For a *complete system* -- the only thing the
    Composition Theorem ever asks us to explore -- ``N`` constrains every
    variable, so the graph is finite and tight.

    ``max_states`` is a hard budget on interned states, enforced by the
    graph at insertion time: the first state beyond the budget raises
    :class:`StateSpaceExplosion` (see
    :class:`~repro.checker.graph.StateGraph`).

    Pass ``checkpoint=path`` to append a snapshot to the run's level log
    every ``checkpoint_every`` BFS levels;
    :func:`repro.checker.checkpoint.resume` continues the last one
    bit-for-bit identically (including after a crash or an exceeded
    budget -- the last complete snapshot survives both).

    ``reduction`` plugs in partial-order reduction (see
    :mod:`repro.checker.reduction`); it defaults to off.
    """
    start = perf_counter()
    options = RunOptions(1, None, None, checkpoint, checkpoint_every)
    return _explore_full(spec, max_states, stats, options, reduction,
                         Serial, start)
