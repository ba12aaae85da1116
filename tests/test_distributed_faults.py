"""Chaos tests: node loss, hangs, and network faults never change results.

The distributed explorer inherits the repo-wide fault discipline (see
``test_fault_injection.py`` for the process-pool layer) and extends it
to *node* loss: a worker that is SIGKILLed mid-level, hangs past the
heartbeat, or sits behind a lossy/duplicating network must never
perturb the graph -- the coordinator rebalances the dead node's
fingerprint ranges onto the survivors, rebuilds the orphaned visited
partitions from its own packed column, re-ships only the unanswered
sources, and the final :class:`~repro.checker.digest.GraphDigest` is
byte-identical to the serial run.  Failures only show up in the new
``ExploreStats`` counters (``node_losses``, ``rebalances``,
``reshipped_sources``).

The fault seams:

* the **worker fault hook** (shipped pickled via ``/load``, invoked per
  ``/expand`` on the worker's loop thread) kills or hangs a node at a
  chosen level, coordinated through marker files exactly like the
  process-pool hooks;
* :class:`~repro.service.wire.NetFaultPlan` deterministically drops
  (transient ``ConnectionError`` absorbed by wire retries) and
  duplicates (idempotence check) coordinator requests;
* the **coordinator kill** test ``os._exit``\\ s a real coordinator
  subprocess between levels and resumes its checkpoint on the same
  (still running) workers.

The acceptance sweep kills a worker at *every* BFS level in turn, at
both 2 and 4 worker nodes.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.checker import (
    ExploreStats,
    NetFaultPlan,
    WorkerFailure,
    explore_compact,
    explore_distributed,
    resume_distributed,
    spawn_local_workers,
)
from repro.checker.checkpoint import read_checkpoint
from repro.systems.mutex import LamportMutex
from repro.systems.queue import complete_queue


# ---------------------------------------------------------------------------
# picklable worker fault hooks (shipped through /load; the marker file
# coordinates "exactly once" across worker processes)
# ---------------------------------------------------------------------------


def _kill_node_at_level(marker: str, level: int, info) -> None:
    """SIGKILL the first worker that expands at (or past) *level*."""
    if info["level"] < level:
        return
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_node_at_level(marker: str, level: int, info) -> None:
    """Hang one worker far past any heartbeat; runs on the loop thread,
    so the node's /healthz freezes too -- a *hung* node, not a busy one."""
    if info["level"] < level:
        return
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return
    time.sleep(300)


def _mutex_spec():
    return LamportMutex(2, 2).complete_spec()


@pytest.fixture(scope="module")
def reference():
    return explore_compact(_mutex_spec())


# ---------------------------------------------------------------------------
# worker loss and hangs
# ---------------------------------------------------------------------------


def test_sigkilled_worker_mid_level_rebalances_to_same_digest(
        reference, tmp_path):
    stats = ExploreStats()
    hook = functools.partial(_kill_node_at_level,
                             str(tmp_path / "killed.marker"), 4)
    with spawn_local_workers(2) as pool:
        graph = explore_distributed(_mutex_spec(), pool.urls, stats=stats,
                                    fault_hook=hook)
        assert len(pool.alive()) == 1  # the kill really happened
    assert graph.digest() == reference.digest()
    assert graph.state_count == reference.state_count
    assert stats.node_losses == 1
    assert stats.rebalances == 1
    # the loss surfaces in the human stats rendering too
    assert "node loss" in stats.format()


def test_externally_killed_worker_between_levels(reference, tmp_path):
    """Loss discovered by the *coordinator's* next request (not a hook):
    the process dies between levels, from outside."""
    stats = ExploreStats()
    state = {"levels": 0, "pool": None}

    def kill_at_level_3(level, info):
        state["levels"] += 1
        if state["levels"] == 3:
            state["pool"].kill(1)

    stats.add_level_listener(kill_at_level_3)
    with spawn_local_workers(2) as pool:
        state["pool"] = pool
        graph = explore_distributed(_mutex_spec(), pool.urls, stats=stats)
    assert graph.digest() == reference.digest()
    assert stats.node_losses == 1


def test_hung_worker_detected_by_heartbeat(reference, tmp_path):
    """A node that hangs (rather than dies) freezes its own /healthz;
    the heartbeat monitor aborts its link, which converts the blocked
    read into a transport error and triggers the normal rebalance."""
    stats = ExploreStats()
    hook = functools.partial(_hang_node_at_level,
                             str(tmp_path / "hung.marker"), 4)
    with spawn_local_workers(2) as pool:
        graph = explore_distributed(_mutex_spec(), pool.urls, stats=stats,
                                    fault_hook=hook, heartbeat=0.2)
        assert len(pool.alive()) == 2  # hung, not dead
    assert graph.digest() == reference.digest()
    assert stats.node_losses == 1


def test_losing_every_node_raises_worker_failure(tmp_path):
    hook = functools.partial(_kill_node_at_level,
                             str(tmp_path / "a.marker"), 0)
    with spawn_local_workers(1) as pool:
        with pytest.raises(WorkerFailure, match="worker nodes were lost"):
            explore_distributed(_mutex_spec(), pool.urls, fault_hook=hook)


@pytest.mark.parametrize("workers", [2, 4])
def test_kill_a_worker_at_every_level(workers, tmp_path):
    """Acceptance sweep: for every BFS level L of the queue system, a
    fresh cluster loses one node at level L -- and every run lands on
    the serial digest."""
    spec = complete_queue(2)
    reference = explore_compact(spec)
    # level count from a distributed run's own manifest (the partition
    # table has one seed row plus one row per expanded BFS level)
    with spawn_local_workers(workers) as pool:
        levels = len(explore_distributed(spec, pool.urls).level_partitions) - 1
    for level in range(levels):
        stats = ExploreStats()
        hook = functools.partial(
            _kill_node_at_level,
            str(tmp_path / f"kill-{workers}-{level}.marker"), level)
        with spawn_local_workers(workers) as pool:
            graph = explore_distributed(spec, pool.urls, stats=stats,
                                        fault_hook=hook)
        assert graph.digest() == reference.digest(), \
            f"digest diverged when killing a node at level {level}"
        assert stats.node_losses == 1, \
            f"no node was lost at level {level}"


# ---------------------------------------------------------------------------
# network faults: seeded drops and duplicates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 23])
def test_dropped_and_duplicated_messages_are_absorbed(reference, seed):
    """Every coordinator POST may be dropped (absorbed by wire retries)
    or duplicated (absorbed by endpoint idempotence/purity); the graph
    never notices."""
    fault = NetFaultPlan(seed=seed, drop_rate=0.05, dup_rate=0.08)
    stats = ExploreStats()
    with spawn_local_workers(2) as pool:
        graph = explore_distributed(_mutex_spec(), pool.urls, stats=stats,
                                    net_fault=fault)
    assert graph.digest() == reference.digest()
    assert graph.state_count == reference.state_count
    assert fault.drops > 0 and fault.duplicates > 0  # faults really fired
    assert stats.worker_retries.get("wire", 0) >= fault.drops


def test_network_faults_compose_with_node_loss(reference, tmp_path):
    fault = NetFaultPlan(seed=11, drop_rate=0.04, dup_rate=0.04)
    hook = functools.partial(_kill_node_at_level,
                             str(tmp_path / "killed.marker"), 5)
    stats = ExploreStats()
    with spawn_local_workers(3) as pool:
        graph = explore_distributed(_mutex_spec(), pool.urls, stats=stats,
                                    net_fault=fault, fault_hook=hook)
    assert graph.digest() == reference.digest()
    assert stats.node_losses == 1


# ---------------------------------------------------------------------------
# coordinator death: checkpoint + resume on the surviving cluster
# ---------------------------------------------------------------------------


_CRASHING_COORDINATOR = textwrap.dedent("""
    import json, os, sys
    from repro.checker import explore_distributed
    from repro.checker.checkpoint import LevelLog
    from repro.systems.mutex import LamportMutex

    path, crash_after = sys.argv[1], int(sys.argv[2])
    urls = json.loads(sys.argv[3])
    saves = [0]
    append = LevelLog.append

    def append_then_die(log, record):
        append(log, record)
        saves[0] += 1
        if saves[0] >= crash_after:
            os._exit(17)  # the coordinator machine dies between levels

    LevelLog.append = append_then_die
    explore_distributed(LamportMutex(2, 2).complete_spec(), urls,
                        checkpoint=path)
""")


@pytest.mark.parametrize("crash_after", [1, 4])
def test_coordinator_killed_between_levels_resumes(reference, tmp_path,
                                                   crash_after):
    path = str(tmp_path / "run.ckpt")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with spawn_local_workers(2) as pool:
        proc = subprocess.run(
            [sys.executable, "-c", _CRASHING_COORDINATOR, path,
             str(crash_after), json.dumps(pool.urls)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 17, proc.stderr
        # the workers survived their coordinator; resume on them
        graph = resume_distributed(path, pool.urls, _mutex_spec())
    assert graph.digest() == reference.digest()
    assert graph.state_count == reference.state_count
    # the log carried the distributed section along
    assert read_checkpoint(path).distributed["ranges"][0][0] == 0


def test_resume_on_larger_cluster_same_digest(reference, tmp_path):
    """The checkpoint pins the pristine ranges, not the cluster: a
    2-worker snapshot finishes on 3 fresh workers, digest unchanged."""
    path = str(tmp_path / "run.ckpt")
    stats = ExploreStats()

    class Stop(Exception):
        pass

    state = {"levels": 0}

    def stop_at_level_5(level, info):
        state["levels"] += 1
        if state["levels"] == 5:
            raise Stop()

    stats.add_level_listener(stop_at_level_5)
    with spawn_local_workers(2) as pool:
        with pytest.raises(Stop):
            explore_distributed(_mutex_spec(), pool.urls, stats=stats,
                                checkpoint=path)
    with spawn_local_workers(3) as pool:
        graph = resume_distributed(path, pool.urls, _mutex_spec())
    assert graph.digest() == reference.digest()
