"""The level-synchronous BFS driver: one loop, two configurations.

Every exploration mode of this package -- serial or process pool,
fresh or resumed -- is :func:`drive` applied to a
*configuration* over an *engine*.

The **engine** seam says how one source node is handled, and has two
instances (``FullEngine`` in :mod:`~repro.checker.explorer` over a
:class:`~repro.checker.graph.StateGraph`, ``CompactEngine`` in
:mod:`~repro.checker.compact` over a
:class:`~repro.checker.compact.CompactGraph`):

* ``graph`` / ``spec``;
* ``payloads[node]`` -- the node's packed row;
* ``expand(payload)`` -- the node's successor rows, pure: the spec's
  :class:`~repro.kernel.packed.PackedPlan` walker, which is also what
  a pool worker runs;
* ``merge(src, expanded)`` -- intern them, return the new node ids;
* ``settle(nodes)`` -- called once per level with the level's new
  nodes (the full engine fingerprints them here in one batch);
* ``header()`` -- the engine's fields of a checkpoint log's header;
* ``snapshot(nodes, sources)`` -- the engine's share of one checkpoint
  record: the rows of the node-id range *nodes* interned since the
  previous record, and the adjacency of the newly expanded *sources*
  (see :class:`~repro.checker.checkpoint.LevelLog`);
* ``finish(stats)`` -- fold engine counters into graph/stats.

A **configuration** says how a whole frontier becomes the next one:
:class:`Serial` (below) and ``Pooled`` (:mod:`~repro.checker.parallel`).
Both merge strictly in frontier order on the coordinator, which is the
whole determinism argument: whatever ran in parallel was pure, so every
mode builds the serial graph bit for bit.

The per-level contract, pinned by ``tests/test_bfs_driver.py``:

1. ``expand_level(frontier)`` expands and merges the level.  A
   :class:`~repro.checker.graph.StateSpaceExplosion` raised here
   propagates with ``exc.graph`` set and never triggers a snapshot.
2. ``stats.record_level`` runs the level listeners.  A listener that
   raises aborts the run with *no* snapshot for this level; the
   previous one survives (the cancellation seam).
3. ``levels`` / ``depth`` advance.
4. ``snapshot`` appends a record to the run's level log every
   ``checkpoint_every``-th level and once more when the frontier
   drains, so a finished run's file resumes as a no-op.  Levels are
   pure functions of (graph, frontier) and the log's records fold back
   into both, so a resumed run repeats the uninterrupted one exactly.

The configuration is closed on every exit path, and ``elapsed`` counts
from the public entry point (``start``) in every mode.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional

from .checkpoint import _SAME_PATH, Checkpoint, LevelLog, run_header

__all__ = ["RunOptions", "resolve_options", "default_workers", "Serial",
           "drive"]


class RunOptions(NamedTuple):
    """How a run is executed and made durable, after validation."""

    workers: int
    worker_timeout: Optional[float]
    fault_hook: Optional[Callable]
    checkpoint: Optional[str]
    checkpoint_every: int


def default_workers() -> int:
    """The worker count ``--workers 0`` resolves to: one per available
    core (respecting CPU affinity where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def resolve_options(
    workers: Optional[int],
    worker_timeout: Optional[float] = None,
    fault_hook: Optional[Callable] = None,
    checkpoint: object = None,
    checkpoint_every: Optional[int] = 1,
    resumed: Optional[Checkpoint] = None,
) -> RunOptions:
    """Validate a public entry point's run options and fill the ones a
    resume leaves open (worker count, cadence, target path) from the
    checkpoint being *resumed*.

    Asking for ``workers=1`` together with options only the process
    pool honours is an error rather than a silent degrade; ``workers=0``
    auto-sizing is exempt because it never *asks* for the serial engine.
    """
    if workers == 1 and (worker_timeout is not None
                         or fault_hook is not None):
        raise ValueError(
            "workers=1 runs the serial engine, which would silently "
            "ignore worker_timeout/fault_hook; drop those options or "
            "use workers >= 2 (workers=0 auto-sizes)")
    if resumed is not None:
        if workers is None:
            workers = resumed.workers
        if checkpoint is _SAME_PATH:
            checkpoint = resumed.path
        if checkpoint_every is None:
            checkpoint_every = resumed.checkpoint_every
    if workers == 0:
        workers = default_workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return RunOptions(workers, worker_timeout, fault_hook, checkpoint,
                      checkpoint_every)


class Serial:
    """The serial configuration -- each source expanded and merged in
    frontier order on this process -- and the base of ``Pooled``, which
    ships the expansion to worker processes but merges the same way."""

    #: seconds the coordinator spent waiting on workers (None: no workers)
    idle: Optional[float] = None

    def __init__(self, engine, stats, options: RunOptions):
        self.engine = engine
        self.stats = stats
        self.options = options

    def expand_level(self, frontier: List[int]) -> List[int]:
        engine = self.engine
        payloads, expand, merge = engine.payloads, engine.expand, engine.merge
        next_frontier: List[int] = []
        for src in frontier:
            next_frontier.extend(merge(src, expand(payloads[src])))
        return next_frontier

    def open_log(self) -> LevelLog:
        """The run's level log, fresh: its first record replaces
        whatever file is at the path."""
        engine, options = self.engine, self.options
        header = run_header(engine.spec.name, engine.graph.max_states,
                            options.workers, options.checkpoint_every,
                            engine.header())
        return LevelLog(options.checkpoint, header)

    def snapshot(self, log: LevelLog, frontier: List[int], depth: int,
                 levels: int, elapsed: float) -> None:
        log.append_level(self.engine.graph, self.engine.snapshot, frontier,
                         depth, levels, elapsed, self.stats)

    def close(self) -> None:
        """Release what the configuration holds (the pool)."""


def drive(level: Serial, frontier: List[int], start: float,
          resumed: Optional[Checkpoint] = None):
    """Run *level*'s BFS from *frontier* until it drains; returns the
    engine's graph.  *start* is the ``perf_counter()`` reading taken at
    the public entry point; a run *resumed* from a checkpoint continues
    that checkpoint's depth / level / elapsed counters."""
    engine, stats, options = level.engine, level.stats, level.options
    graph = engine.graph
    checkpoint_every = options.checkpoint_every
    log = level.open_log() if options.checkpoint is not None else None
    depth, levels, before = ((resumed.depth, resumed.levels,
                              resumed.elapsed_seconds)
                             if resumed is not None else (0, 0, 0.0))
    try:
        while frontier:
            next_frontier = level.expand_level(frontier)
            engine.settle(next_frontier)
            if stats is not None:
                stats.record_level(len(frontier), graph)
            frontier = next_frontier
            levels += 1
            if frontier:
                depth += 1
            if log is not None and (
                    not frontier or levels % checkpoint_every == 0):
                level.snapshot(log, frontier, depth, levels,
                               before + perf_counter() - start)
    finally:
        level.close()
    engine.finish(stats)
    if stats is not None:
        stats.record_explore(graph, depth, before + perf_counter() - start)
        if level.idle is not None:
            stats.record_parallel(options.workers, level.idle)
    return graph
