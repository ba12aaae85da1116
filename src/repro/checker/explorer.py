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
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..kernel.action import compile_action
from ..kernel.expr import Expr, prime_expr, to_expr
from ..kernel.packed import PackedPlan
from ..kernel.state import State, Universe
from ..spec import Spec
from .bfs import RunOptions, Serial, drive
from .checkpoint import graph_header, graph_rows
from .graph import StateGraph, StateSpaceExplosion
from .stats import ExploreStats, maybe_phase

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


class FullEngine:
    """The full-state engine seam of :mod:`repro.checker.bfs`: states
    are retained in a :class:`StateGraph`.

    The payloads are packed rows and ``expand`` is the packed walker;
    :meth:`merge` interns on the exact packed row, decoding only the
    states it adds.  No attribute holds a method of the engine itself,
    so the engine and its graph die by reference count."""

    def __init__(self, spec: Spec, graph: StateGraph):
        self.spec = spec
        self.graph = graph
        plan = PackedPlan(spec)
        self.codec = plan.codec
        self.rows: List[int] = list(map(self.codec.encode, graph.states))
        self.visited = {row: node for node, row in enumerate(self.rows)}
        self.settle(range(len(self.rows)))
        self.payloads, self.expand = self.rows, plan.successors

    def merge(self, src: int, expanded: List[int]) -> List[int]:
        """Intern one source's successors in order; returns the new node
        ids.  Edges, BFS parents and the graph's insertion-time budget
        follow the emission order, so every configuration builds the
        same graph."""
        graph, rows, visited = self.graph, self.rows, self.visited
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
        return graph_header(self.graph)

    def snapshot(self, nodes: range, sources: range) -> Dict[str, object]:
        return graph_rows(self.graph, nodes, sources)

    def finish(self, stats: Optional[ExploreStats]) -> None:
        """Nothing to fold: the full engine keeps no counters."""


def _explore_full(spec: Spec, max_states: int, stats: Optional[ExploreStats],
                  options: RunOptions, configure: Callable[..., Serial],
                  start: float) -> StateGraph:
    """Seed a fresh full-state graph and drive it under the
    configuration *configure* builds -- the body shared by
    :func:`explore` and
    :func:`~repro.checker.parallel.explore_parallel`."""
    graph, frontier = _seed_graph(spec, max_states)
    with maybe_phase(stats, "plan"):
        engine = FullEngine(spec, graph)
    return drive(configure(engine, stats, options), frontier, start)


def explore(
    spec: Spec,
    max_states: int = 200_000,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
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
    """
    start = perf_counter()
    options = RunOptions(1, None, None, checkpoint, checkpoint_every)
    return _explore_full(spec, max_states, stats, options, Serial, start)
