"""PERF: explorer hot-path — compiled-plan successors vs the pre-PR path.

The checker overhaul (compiled-action successor plans built once per run,
set-backed O(1) edge insertion, cached universe variable tuples) targets
the ``explore()`` hot loop.  This benchmark pits the new path against a
**faithful snapshot of the pre-PR implementation** (kept below, so the
comparison is machine-independent) on the appendix queue system and the
Figure 1 circuit, and asserts the >= 1.5x speedup recorded in ISSUE 1.

Pre-PR baseline, measured at the seed commit on the dev container
(median of 7 runs, CPython 3.11):

    complete_queue(2): 170 states   14.85 ms   ~11,450 states/sec
    complete_queue(3): 362 states   33.64 ms   ~10,760 states/sec

Post-overhaul the same container explores complete_queue(2) in ~5.5 ms
(~31,000 states/sec), a ~2.7x improvement.
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro.checker import ExploreStats, explore, explore_parallel
from repro.checker.explorer import initial_states
from repro.kernel.action import compile_action
from repro.kernel.expr import Env, EvalError
from repro.kernel.state import State
from repro.systems.circuit import composed_processes
from repro.systems.queue import complete_queue

from conftest import report


# -- faithful snapshot of the pre-PR hot path --------------------------------
#
# This replicates, warts intact, what the seed commit did per state:
# re-deriving the sorted variable tuple from the universe on every
# ``Universe.variables`` access (including once per *candidate* in the
# frame-check loop), recomputing each branch's free-variable list per
# state, and list-membership edge insertion in the graph.


def _vars(universe):
    # pre-PR Universe.variables: tuple(sorted(...)) recomputed per access
    return tuple(sorted(universe._domains))


def _baseline_enumerate_post(state, universe, branch, relevant):
    env0 = Env(state)
    determined = {}
    for name, expr in branch.bindings.items():
        if name not in universe:
            continue
        try:
            value = expr.eval(env0)
        except EvalError:
            return
        if value not in universe.domain(name):
            return
        determined[name] = value
    for name, expr in branch.binding_checks:
        if name not in determined:
            continue
        try:
            if expr.eval(env0) != determined[name]:
                return
        except EvalError:
            return
    free = [name for name in relevant if name not in determined]
    base = dict(state)
    base.update(determined)

    def rec(index):
        if index == len(free):
            candidate = State._trusted(dict(base))
            env = Env(state, candidate)
            try:
                if all(c.holds(env) for c in branch.constraints):
                    yield candidate
            except EvalError:
                pass
            return
        name = free[index]
        for value in universe.domain(name).values():
            base[name] = value
            yield from rec(index + 1)
        base[name] = state[name]

    yield from rec(0)


def _baseline_successors(compiled, state, universe):
    relevant = _vars(universe)
    seen = set()
    for branch in compiled.branches:
        for candidate in _baseline_enumerate_post(state, universe, branch,
                                                  relevant):
            ok = True
            for name in _vars(universe):  # property access per candidate
                if name not in relevant and candidate[name] != state[name]:
                    ok = False
                    break
            if ok and candidate not in seen:
                seen.add(candidate)
                yield candidate


class _BaselineGraph:
    """Pre-PR StateGraph construction: O(degree) list-membership edges."""

    def __init__(self):
        self.states = []
        self.index = {}
        self.succ = []
        self.init_nodes = []

    def add_state(self, state):
        node = self.index.get(state)
        if node is not None:
            return node, False
        node = len(self.states)
        self.index[state] = node
        self.states.append(state)
        self.succ.append([node])
        return node, True

    def add_edge(self, src, dst):
        if dst != src and dst not in self.succ[src]:
            self.succ[src].append(dst)

    def real_edges(self):
        return {(self.states[s], self.states[d])
                for s, outs in enumerate(self.succ)
                for d in outs if d != s}


def _baseline_explore(spec, max_states=200_000):
    graph = _BaselineGraph()
    frontier = []
    # the pre-overhaul path hit a process-wide compile cache per state;
    # compiling once per run is the same cost model without one
    compiled = compile_action(spec.next_action)
    for state in initial_states(spec.init, spec.universe):
        node, new = graph.add_state(state)
        if new:
            graph.init_nodes.append(node)
            frontier.append(node)
    while frontier:
        if len(graph.states) > max_states:
            raise RuntimeError("explosion")
        next_frontier = []
        for src in frontier:
            state = graph.states[src]
            for succ_state in _baseline_successors(compiled, state,
                                                   spec.universe):
                dst, new = graph.add_state(succ_state)
                graph.add_edge(src, dst)
                if new:
                    next_frontier.append(dst)
        frontier = next_frontier
    return graph


# -- measurement -------------------------------------------------------------


def _best_of(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _real_edges(graph):
    return {(graph.states[s], graph.states[d])
            for s, outs in enumerate(graph.succ)
            for d in outs if d != s}


def test_explore_queue_matches_baseline_and_is_1_5x_faster():
    spec = complete_queue(2)
    base_graph = _baseline_explore(spec)
    new_graph = explore(spec)

    # the overhaul must not change the explored graph
    assert set(new_graph.states) == set(base_graph.states)
    assert _real_edges(new_graph) == base_graph.real_edges()
    assert new_graph.edge_count == len(base_graph.real_edges())
    assert new_graph.stutter_count == new_graph.state_count

    t_base = _best_of(lambda: _baseline_explore(spec))
    t_new = _best_of(lambda: explore(spec))
    speedup = t_base / t_new
    report("PERF: explore(complete_queue(2)) vs pre-PR baseline", [
        ["states", new_graph.state_count],
        ["real edges", new_graph.edge_count],
        ["pre-PR path", f"{t_base * 1000:.2f} ms"],
        ["compiled-plan path", f"{t_new * 1000:.2f} ms"],
        ["speedup", f"{speedup:.2f}x"],
    ])
    assert speedup >= 1.5, (
        f"expected >= 1.5x speedup over the pre-PR explore path, "
        f"got {speedup:.2f}x ({t_base * 1000:.2f} ms -> {t_new * 1000:.2f} ms)"
    )


def test_explore_queue_n3_scaling():
    spec = complete_queue(3)
    stats = ExploreStats()
    graph = explore(spec, stats=stats)
    t_base = _best_of(lambda: _baseline_explore(spec), reps=3)
    t_new = _best_of(lambda: explore(spec), reps=3)
    report("PERF: explore(complete_queue(3))", [
        ["states", graph.state_count],
        ["real edges", graph.edge_count],
        ["depth", stats.depth],
        ["pre-PR path", f"{t_base * 1000:.2f} ms"],
        ["compiled-plan path", f"{t_new * 1000:.2f} ms"],
        ["states/sec", f"{stats.states_per_sec:,.0f}"],
    ])
    assert graph.state_count == 362
    assert t_base / t_new >= 1.2  # looser bound on the bigger instance


def test_explore_circuit_matches_baseline():
    spec = composed_processes()
    base_graph = _baseline_explore(spec)
    graph = explore(spec)
    assert set(graph.states) == set(base_graph.states)
    assert _real_edges(graph) == base_graph.real_edges()
    t_new = _best_of(lambda: explore(spec))
    report("PERF: explore(circuit composed_processes)", [
        ["states", graph.state_count],
        ["real edges", graph.edge_count],
        ["stutter loops", graph.stutter_count],
        ["compiled-plan path", f"{t_new * 1000:.3f} ms"],
    ])


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover
        return os.cpu_count() or 1


def _assert_identical(serial, parallel):
    assert parallel.states == serial.states        # same nodes, same numbering
    assert parallel.succ == serial.succ            # same edges
    assert parallel.init_nodes == serial.init_nodes
    assert parallel.parent == serial.parent        # same BFS trace tree


def test_explore_parallel_matches_serial_exactly():
    """Graph equality (nodes, edges, init_nodes, numbering, parent tree)
    holds on any machine -- this is the correctness half of the parallel
    acceptance criterion; the wall-clock half is below."""
    spec = complete_queue(4)
    serial = explore(spec)
    for workers in (2, 4):
        _assert_identical(serial, explore_parallel(spec, workers=workers))


def test_explore_parallel_queue_speedup_4_workers():
    """PERF: ``explore_parallel(queue, workers=4)`` vs serial ``explore``.

    The appendix queue system, sized so the successor work dominates the
    coordinator's (serial) merging and IPC.  Requires 4 usable cores --
    on smaller boxes the workers timeshare one core and the measurement
    would only show scheduler overhead, so the speedup assertion is
    meaningless there and the test skips (CI runs it; the graph-equality
    test above runs everywhere).
    """
    cores = _usable_cores()
    if cores < 4:
        pytest.skip(f"needs >= 4 usable cores for a meaningful "
                    f"4-worker speedup measurement, have {cores}")
    spec = complete_queue(9)  # ~24.5k states, ~1.3s serial on the dev box
    serial_graph = explore(spec)
    stats = ExploreStats()
    parallel_graph = explore_parallel(spec, workers=4, stats=stats)
    _assert_identical(serial_graph, parallel_graph)

    t_serial = _best_of(lambda: explore(spec), reps=3)
    t_parallel = _best_of(lambda: explore_parallel(spec, workers=4), reps=3)
    speedup = t_serial / t_parallel
    rows = [
        ["states", parallel_graph.state_count],
        ["real edges", parallel_graph.edge_count],
        ["serial explore", f"{t_serial * 1000:.1f} ms"],
        ["parallel explore (4 workers)", f"{t_parallel * 1000:.1f} ms"],
        ["speedup", f"{speedup:.2f}x"],
        ["coordinator idle", f"{stats.coordinator_idle_seconds * 1000:.1f} ms"],
    ]
    for worker_id in sorted(stats.worker_stats):
        entry = stats.worker_stats[worker_id]
        rows.append([f"worker {worker_id} sources",
                     f"{entry['sources']:.0f} "
                     f"(busy {entry['busy_seconds'] * 1000:.1f} ms)"])
    report("PERF: explore_parallel(complete_queue(9), workers=4)", rows)
    assert speedup >= 1.5, (
        f"expected >= 1.5x wall-clock speedup at 4 workers, got "
        f"{speedup:.2f}x ({t_serial * 1000:.1f} ms -> "
        f"{t_parallel * 1000:.1f} ms)"
    )


def test_explore_stats_populated():
    stats = ExploreStats()
    graph = explore(complete_queue(2), stats=stats)
    assert stats.states == graph.state_count == 170
    assert stats.edges == graph.edge_count
    assert stats.stutter_edges == graph.state_count
    assert stats.init_states == len(graph.init_nodes)
    assert stats.depth > 0
    assert stats.states_per_sec > 0
    assert stats.phases["explore"] == stats.explore_seconds > 0
    snapshot = stats.as_dict()
    assert snapshot["states"] == 170
    assert "explore" in snapshot["phases"]
