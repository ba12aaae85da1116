"""Differential tests: the parallel explorer is bit-for-bit the serial one.

For every bundled system (queue, arbiter, handshake, circuit) and every
worker count k in {1, 2, 4} (plus ``REPRO_TEST_WORKERS`` from the CI
matrix, if set), ``explore_parallel(spec, workers=k)`` must yield the
*identical* graph to serial ``explore``: same states under the same node
numbering, same adjacency, same ``init_nodes``, same BFS parent tree,
same ``stutter_count``, same BFS depth -- and ``StateSpaceExplosion``
must fire at the same budget.  This is the cross-checking-backends
discipline of TLAPS-style tooling applied to the explorer pair: the
serial path (workers=1) is the reference semantics, and any divergence
under sharding is a bug by definition.
"""

from __future__ import annotations

import os

import pytest

from repro.checker import (
    ExploreStats,
    StateSpaceExplosion,
    explore,
    explore_compact,
    explore_parallel,
    resume,
    resume_compact,
)
from repro.kernel.expr import And, Exists, Or, Var
from repro.spec import Spec
from repro.systems.arbiter import composed_system
from repro.systems.circuit import composed_processes
from repro.systems.handshake import (
    ack,
    channel_universe,
    channel_vars,
    cinit,
    send,
)
from repro.systems.queue import DEFAULT_MSG, complete_queue

from .test_fault_injection import _kill_once


def handshake_system() -> Spec:
    """A closed Figure-2 system: one channel, a sender that transmits
    arbitrary messages and a receiver that acknowledges them."""
    chan = "c"
    nxt = Or(Exists("v", DEFAULT_MSG, send(Var("v"), chan)), ack(chan))
    return Spec(
        "handshake(c)",
        And(cinit(chan)),
        nxt,
        channel_vars(chan),
        channel_universe(chan, DEFAULT_MSG),
    )


SYSTEMS = [
    pytest.param(lambda: complete_queue(2), id="queue"),
    pytest.param(composed_system, id="arbiter"),
    pytest.param(handshake_system, id="handshake"),
    pytest.param(composed_processes, id="circuit"),
]

WORKER_COUNTS = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
if _extra and _extra not in WORKER_COUNTS:
    WORKER_COUNTS.append(_extra)


def assert_graphs_identical(serial, parallel, serial_depth, parallel_depth):
    # node sets *and* numbering: the states lists must be elementwise equal
    assert parallel.states == serial.states
    # edge sets, including order of insertion per adjacency list
    assert parallel.succ == serial.succ
    assert parallel.edge_count == serial.edge_count
    assert parallel.init_nodes == serial.init_nodes
    assert parallel.stutter_count == serial.stutter_count
    # the BFS tree (counterexample traces) must also coincide
    assert parallel.parent == serial.parent
    assert parallel_depth == serial_depth


@pytest.mark.parametrize("make_spec", SYSTEMS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_explore_matches_serial(make_spec, workers):
    spec = make_spec()
    serial_stats = ExploreStats()
    serial = explore(spec, stats=serial_stats)
    parallel_stats = ExploreStats()
    parallel = explore_parallel(spec, workers=workers, stats=parallel_stats)
    assert_graphs_identical(serial, parallel,
                            serial_stats.depth, parallel_stats.depth)
    assert parallel_stats.states == serial_stats.states
    assert parallel_stats.edges == serial_stats.edges
    assert parallel_stats.stutter_edges == serial_stats.stutter_edges
    assert parallel_stats.init_states == serial_stats.init_states
    if workers > 1:
        assert parallel_stats.workers == workers


@pytest.mark.parametrize("workers", [2, 4])
def test_explosion_fires_at_the_same_budget(workers):
    spec = complete_queue(2)
    full = explore(spec)
    # a budget below the true state count must blow up on both paths ...
    budget = full.state_count // 2
    with pytest.raises(StateSpaceExplosion):
        explore(spec, max_states=budget)
    with pytest.raises(StateSpaceExplosion):
        explore_parallel(spec, max_states=budget, workers=workers)
    # ... and the exact state count must succeed on both
    serial = explore(spec, max_states=full.state_count)
    parallel = explore_parallel(spec, max_states=full.state_count,
                                workers=workers)
    assert parallel.states == serial.states
    assert parallel.succ == serial.succ


@pytest.mark.parametrize("budget", [1, 5, 17, 100])
def test_explosion_budget_sweep_queue(budget):
    """The budget is enforced at the same insertion for every budget value,
    not just one: either both paths explode or both succeed identically."""
    spec = complete_queue(2)
    try:
        serial = explore(spec, max_states=budget)
        serial_exploded = False
    except StateSpaceExplosion:
        serial_exploded = True
    try:
        parallel = explore_parallel(spec, max_states=budget, workers=2)
        parallel_exploded = False
    except StateSpaceExplosion:
        parallel_exploded = True
    assert serial_exploded == parallel_exploded
    if not serial_exploded:
        assert parallel.states == serial.states


def test_workers_zero_resolves_to_cores():
    """``workers=0`` auto-sizes; the result is still the reference graph."""
    spec = composed_processes()
    serial = explore(spec)
    parallel = explore_parallel(spec, workers=0)
    assert parallel.states == serial.states
    assert parallel.succ == serial.succ


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        explore_parallel(complete_queue(2), workers=-1)


# ---------------------------------------------------------------------------
# option validation: no silent degradation to the serial engine
# ---------------------------------------------------------------------------


def test_explicit_serial_with_parallel_only_options_rejected():
    spec = complete_queue(2)
    with pytest.raises(ValueError, match="serial"):
        explore_parallel(spec, workers=1, worker_timeout=5.0)
    with pytest.raises(ValueError, match="serial"):
        explore_parallel(spec, workers=1, fault_hook=_kill_once)


def test_resume_paths_validate_options_like_fresh_runs(tmp_path):
    """The same two rejections on both resume entry points: they share
    the fresh runs' option resolver."""
    spec = complete_queue(2)
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(spec, checkpoint=full)
    explore_compact(spec, checkpoint=compact)
    for resumer, path in ((resume, full), (resume_compact, compact)):
        with pytest.raises(ValueError, match="serial"):
            resumer(path, spec, workers=1, worker_timeout=5.0)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            resumer(path, spec, workers=-3)


def test_autosized_workers_keep_parallel_options():
    """workers=0 resolves to the core count and is exempt from the
    explicit-workers=1 rejection (it never *silently* degrades)."""
    spec = complete_queue(2)
    serial = explore(spec)
    graph = explore_parallel(spec, workers=0, worker_timeout=60.0)
    assert graph.states == serial.states
    assert graph.succ == serial.succ
    assert graph.parent == serial.parent
