"""The level driver's contract, pinned across all four ways of running it.

``repro.checker.bfs.drive`` is the only level loop in the checker; the
serial, pooled, compact and compact-pooled runs are configurations of
it.  The differential
suites compare the *graphs* those runs build; this file pins what the
driver itself promises per level, identically in every mode:

* the same ``stats.levels`` rows and the same listener ``(level, row)``
  calls, in the same order;
* a snapshot after exactly the levels the cadence names, plus the level
  that drains the frontier;
* a listener that raises at level *k* aborts the run with no snapshot
  for that level -- the previous cadence snapshot survives, and resuming
  it reaches the reference digest;
* ``StateSpaceExplosion`` at the same insertion, with ``exc.graph`` set,
  and no snapshot taken on the way out.
"""

from __future__ import annotations

import os

import pytest

import repro.checker.parallel as parallel_module
from repro.checker import (
    ExploreStats,
    StateSpaceExplosion,
    digest_of_graph,
    explore,
    explore_compact,
    explore_parallel,
    resume,
    resume_compact,
)
from repro.checker.checkpoint import read_checkpoint
from repro.systems.mutex import LamportMutex
from repro.systems.queue import complete_queue

SYSTEMS = {
    "queue": lambda: complete_queue(2),
    "mutex": lambda: LamportMutex(2, 2).complete_spec(),
}
MODES = ["serial", "pooled", "compact", "compact-pooled"]

@pytest.fixture(autouse=True)
def shipped_chunks(monkeypatch):
    """With the chunk floor at 1 the pooled modes really ship these
    small systems' levels to worker processes."""
    monkeypatch.setattr(parallel_module, "_MIN_CHUNK", 1)


def run(mode, spec, **options):
    if mode == "serial":
        return explore(spec, **options)
    if mode == "pooled":
        return explore_parallel(spec, workers=2, **options)
    if mode == "compact":
        return explore_compact(spec, **options)
    return explore_compact(spec, workers=2, **options)


def resume_run(mode, path, spec):
    if mode == "serial":
        return resume(path, spec, checkpoint=None)
    if mode == "pooled":
        return resume(path, spec, workers=2, checkpoint=None)
    if mode == "compact":
        return resume_compact(path, spec, checkpoint=None)
    return resume_compact(path, spec, workers=2, checkpoint=None)


def digest(graph) -> str:
    return graph.digest() if hasattr(graph, "digest") \
        else digest_of_graph(graph)


def stored_levels(path):
    """The ``levels`` counter of the snapshot at *path* (None: no file)."""
    if not os.path.exists(path):
        return None
    return read_checkpoint(path).levels


def observed_run(mode, spec, path, checkpoint_every):
    """One checkpointed run; returns (stats rows, listener calls, the
    set of levels after which a snapshot was on disk)."""
    stats = ExploreStats()
    calls, snapshots = [], set()

    def listener(level, row):
        calls.append((level, dict(row)))
        # listeners run before this level's snapshot: what is on disk
        # now is the previous snapshot
        snapshots.add(stored_levels(path))

    stats.add_level_listener(listener)
    run(mode, spec, stats=stats, checkpoint=path,
        checkpoint_every=checkpoint_every)
    snapshots.add(stored_levels(path))
    return stats.levels, calls, snapshots - {None}


@pytest.mark.parametrize("checkpoint_every", [1, 3])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_levels_listeners_and_snapshot_cadence(system, checkpoint_every,
                                               tmp_path):
    make_spec = SYSTEMS[system]
    reference = ExploreStats()
    explore(make_spec(), stats=reference)
    total = len(reference.levels)
    expected_calls = list(enumerate(reference.levels))
    expected_snapshots = {done for done in range(1, total + 1)
                          if done % checkpoint_every == 0 or done == total}
    for mode in MODES:
        rows, calls, snapshots = observed_run(
            mode, make_spec(), str(tmp_path / f"{mode}.ckpt"),
            checkpoint_every)
        assert rows == reference.levels, mode
        assert calls == expected_calls, mode
        assert snapshots == expected_snapshots, mode


class _Abort(Exception):
    pass


@pytest.mark.parametrize("checkpoint_every", [1, 3])
@pytest.mark.parametrize("mode", MODES)
def test_listener_abort_keeps_previous_snapshot(mode, checkpoint_every,
                                                tmp_path):
    """Raise from the listener of level 4: that level is merged but not
    snapshotted, the file still holds the last cadence boundary, and a
    resume from it finishes on the reference digest."""
    spec = SYSTEMS["queue"]()
    reference = digest(explore(spec))
    path = str(tmp_path / "run.ckpt")
    stats = ExploreStats()

    def abort_at_4(level, row):
        if level == 4:
            raise _Abort()

    stats.add_level_listener(abort_at_4)
    with pytest.raises(_Abort):
        run(mode, SYSTEMS["queue"](), stats=stats, checkpoint=path,
            checkpoint_every=checkpoint_every)
    assert stored_levels(path) == (4 if checkpoint_every == 1 else 3)
    assert digest(resume_run(mode, path, spec)) == reference


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_explosion_at_the_same_insertion(system, tmp_path):
    make_spec = SYSTEMS[system]
    budget = 100
    explosions, compact_digests = {}, {}
    for mode in MODES:
        path = str(tmp_path / f"{mode}.ckpt")
        with pytest.raises(StateSpaceExplosion) as caught:
            run(mode, make_spec(), max_states=budget, checkpoint=path)
        graph = caught.value.graph
        assert graph is not None, mode
        assert graph.state_count == budget, mode
        explosions[mode] = (str(caught.value), list(graph.states),
                            list(graph.init_nodes), stored_levels(path))
        if hasattr(graph, "digest"):
            compact_digests[mode] = graph.digest()
    # same message, same states in the same node order, and the same last
    # completed level on disk: the explosion itself never snapshots
    assert all(found == explosions["serial"]
               for found in explosions.values())
    # the compact family streams its digest, so there the whole partial
    # graph (edges included) is comparable at the explosion boundary
    assert len(compact_digests) == 2
    assert len(set(compact_digests.values())) == 1, compact_digests
