"""Exploration and checking statistics (the checker's observability layer).

An :class:`ExploreStats` instance rides along through ``explore()`` /
``check_invariant()`` / ``check_temporal_implication()`` /
``check_safety_refinement()`` and accumulates what TLC-style tooling
reports per run: state and edge counts (real ``N``-edges vs materialised
stutter self-loops), BFS frontier depth, wall-clock time per phase, and
the derived states-per-second throughput.  The CLI's ``--stats`` flag
prints :meth:`ExploreStats.format`.

The layer is deliberately write-only for the checker: populating it costs
two ``perf_counter`` calls per phase, so it is safe to leave on in
production runs, and every later scaling PR (sharding, parallel BFS) can
quantify itself against the same numbers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .graph import StateGraph


class ExploreStats:
    """Per-run exploration/checking statistics.

    * ``states`` / ``edges`` / ``stutter_edges`` -- graph size; ``edges``
      counts real ``N``-edges only, the stutter self-loops (one per node)
      are reported separately;
    * ``init_states`` -- number of initial states;
    * ``depth`` -- BFS frontier depth: the number of expansion levels, i.e.
      the distance of the deepest state from an initial state;
    * ``explore_seconds`` -- wall-clock time of the exploration phase;
    * ``phases`` -- ordered wall-clock timings per named phase
      (exploration plus one entry per invariant/property check).
      ``plan`` is successor-plan construction (the layer the benchmark
      calls ``kernel.action.plan_build``); it is the one nested entry,
      a part of ``explore``, whose clock starts at the public entry
      point;
    * ``workers`` -- worker-process count of a parallel exploration
      (0 = serial run);
    * ``worker_stats`` -- per-worker accumulators: sources expanded,
      successors produced, batches returned, busy seconds (worker-side
      wall-clock inside the expander);
    * ``coordinator_idle_seconds`` -- time the parallel coordinator spent
      blocked waiting on worker results (the shard-balance signal: high
      idle with low worker busy time means the frontier shards are too
      coarse or the instance is too small to parallelise);
    * ``worker_retries`` -- per-reason counts of frontier chunks that had
      to be re-run on a fresh worker process (``"crash"``: the worker
      died mid-chunk; ``"timeout"``: it exceeded the per-chunk timeout).
      Retries never change the explored graph -- chunk expansion is pure
      and the merge order is fixed -- so this is purely an
      infrastructure-health signal.
    """

    __slots__ = ("states", "edges", "stutter_edges", "init_states", "depth",
                 "explore_seconds", "phases", "workers", "worker_stats",
                 "coordinator_idle_seconds", "worker_retries", "levels",
                 "levels_seen", "peak_rss_kb", "engine",
                 "fingerprint_collisions", "_level_listeners")

    # per-level rows beyond this are dropped (pathologically deep graphs
    # would otherwise bloat checkpoints); the totals stay exact
    _MAX_LEVEL_ROWS = 2048

    def __init__(self) -> None:
        self.states = 0
        self.edges = 0
        self.stutter_edges = 0
        self.init_states = 0
        self.depth = 0
        self.explore_seconds = 0.0
        self.phases: Dict[str, float] = {}
        self.workers = 0
        self.worker_stats: Dict[int, Dict[str, float]] = {}
        self.coordinator_idle_seconds = 0.0
        self.worker_retries: Dict[str, int] = {}
        # per-BFS-level cumulative snapshots: frontier size expanded plus
        # the graph's state / real-edge / stutter-edge counts afterwards
        self.levels: List[Dict[str, int]] = []
        # total levels recorded, including rows beyond _MAX_LEVEL_ROWS
        self.levels_seen = 0
        # the progress-callback seam: the level driver (checker/bfs.py)
        # calls record_level at every BFS level boundary, so a listener here
        # observes live per-level progress (the checking service streams
        # these; raising from a listener aborts the exploration, which is
        # how cooperative cancellation works)
        self._level_listeners: List[Callable[[int, Dict[str, int]], None]] = []
        self.peak_rss_kb = 0
        # which exploration engine produced these numbers ("full" or
        # "compact"), and how many 64-bit fingerprint collisions were
        # *observed* among distinct states (never silent: both graph
        # classes intern on exact keys and count them)
        self.engine = "full"
        self.fingerprint_collisions = 0

    # -- population ----------------------------------------------------------

    def record_graph(self, graph: "StateGraph") -> None:
        """Copy the size metrics of an explored graph."""
        self.states = graph.state_count
        self.edges = graph.edge_count
        self.stutter_edges = graph.stutter_count
        self.init_states = len(graph.init_nodes)

    def record_explore(self, graph: "StateGraph", depth: int,
                       seconds: float) -> None:
        """Record one exploration run (size, frontier depth, timing),
        plus the graph's observed fingerprint collisions and the
        process's peak RSS."""
        self.record_graph(graph)
        self.depth = depth
        self.explore_seconds = seconds
        self.phases["explore"] = self.phases.get("explore", 0.0) + seconds
        self.fingerprint_collisions = graph.fingerprint_collisions
        self.peak_rss_kb = _peak_rss_kb()

    def add_level_listener(
            self, listener: Callable[[int, Dict[str, int]], None]) -> None:
        """Subscribe to per-level progress: *listener* is called with
        ``(level_index, row)`` after every completed BFS level, where
        ``row`` is the same dict :meth:`record_level` stores.  Listeners
        run on the exploring thread, between the level merge and the
        level's checkpoint; an exception raised by a listener aborts the
        exploration at that boundary (the previous checkpoint survives),
        which is the cancellation/shutdown seam the checking service
        uses."""
        self._level_listeners.append(listener)

    def record_level(self, frontier: int, graph: "StateGraph") -> None:
        """Record one completed BFS level: the frontier size that was just
        expanded and the cumulative graph counters after the merge."""
        row = {
            "frontier": frontier,
            "states": graph.state_count,
            "edges": graph.edge_count,
            "stutter": graph.stutter_count,
        }
        level = self.levels_seen
        self.levels_seen += 1
        if len(self.levels) < self._MAX_LEVEL_ROWS:
            self.levels.append(row)
        for listener in self._level_listeners:
            listener(level, row)

    def record_worker_batch(self, worker_id: int, sources: int,
                            successors: int, busy_seconds: float) -> None:
        """Accumulate one returned worker batch into that worker's totals."""
        entry = self.worker_stats.get(worker_id)
        if entry is None:
            entry = {"sources": 0, "successors": 0, "batches": 0,
                     "busy_seconds": 0.0}
            self.worker_stats[worker_id] = entry
        entry["sources"] += sources
        entry["successors"] += successors
        entry["batches"] += 1
        entry["busy_seconds"] += busy_seconds

    def record_parallel(self, workers: int, idle_seconds: float) -> None:
        """Record the coordinator-side shape of a parallel exploration."""
        self.workers = workers
        self.coordinator_idle_seconds += idle_seconds

    def record_retry(self, reason: str) -> None:
        """Count one chunk retry (``"crash"`` or ``"timeout"``)."""
        self.worker_retries[reason] = self.worker_retries.get(reason, 0) + 1

    @property
    def total_retries(self) -> int:
        return sum(self.worker_retries.values())

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Reload the accumulators a resumed run carries over from its
        checkpoint's :meth:`as_dict` snapshot.

        Only the *cumulative* counters are restored -- worker totals,
        retries, coordinator idle time, worker count.  Graph-size fields
        and the ``explore`` phase are deliberately skipped: the resumed
        run re-records them itself (``record_explore`` is handed the
        checkpointed elapsed seconds plus the new ones, so restoring the
        phase here would double-count it).
        """
        self.workers = int(snapshot.get("workers", 0) or 0)
        self.coordinator_idle_seconds = float(
            snapshot.get("coordinator_idle_seconds", 0.0) or 0.0)
        for worker_id, entry in dict(
                snapshot.get("worker_stats") or {}).items():
            self.worker_stats[int(worker_id)] = {
                key: value for key, value in dict(entry).items()
            }
        for reason, count in dict(
                snapshot.get("worker_retries") or {}).items():
            self.worker_retries[str(reason)] = int(count)
        self.levels = [dict(row) for row in (snapshot.get("levels") or [])]
        self.levels_seen = int(snapshot.get("levels_seen", len(self.levels))
                               or len(self.levels))
        engine = snapshot.get("engine")
        if engine:
            self.engine = str(engine)
        self.fingerprint_collisions = int(
            snapshot.get("fingerprint_collisions", 0) or 0)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase; repeated names accumulate."""
        start = perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (
                self.phases.get(name, 0.0) + perf_counter() - start
            )

    # -- derived -------------------------------------------------------------

    @property
    def states_per_sec(self) -> float:
        """Exploration throughput (0.0 before any exploration ran)."""
        if self.explore_seconds <= 0.0:
            return 0.0
        return self.states / self.explore_seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values()) - self.phases.get("plan", 0.0)

    @property
    def collision_probability_bound(self) -> float:
        """Birthday bound on the probability that *any* two of the
        explored states share a 64-bit fingerprint: ``n(n-1)/2 / 2^64``
        (capped at 1.0).  This is what a fingerprint-set explorer like
        TLC risks silently merging; our engines intern on exact keys, so
        here it bounds how often the *observed* collision counter should
        fire under a sound hash."""
        n = self.states
        return min(1.0, (n * (n - 1) / 2) / float(1 << 64))

    # -- rendering -----------------------------------------------------------

    def format(self, indent: str = "") -> str:
        """A human-readable multi-line summary (what ``--stats`` prints)."""
        lines: List[str] = [
            f"{indent}stats: {self.states} states "
            f"({self.init_states} initial), "
            f"{self.edges} real edges + {self.stutter_edges} stutter, "
            f"depth {self.depth}",
            f"{indent}       {self.states_per_sec:,.0f} states/sec "
            f"(explore {self.explore_seconds:.4f}s)",
        ]
        if self.workers:
            retry_text = ""
            if self.worker_retries:
                rendered_retries = ", ".join(
                    f"{count} {reason}"
                    for reason, count in sorted(self.worker_retries.items())
                )
                retry_text = f", retries: {rendered_retries}"
            lines.append(
                f"{indent}parallel: {self.workers} workers, coordinator idle "
                f"{self.coordinator_idle_seconds:.4f}s{retry_text}"
            )
            for worker_id in sorted(self.worker_stats):
                entry = self.worker_stats[worker_id]
                busy = entry["busy_seconds"]
                rate = entry["sources"] / busy if busy > 0 else 0.0
                lines.append(
                    f"{indent}  worker {worker_id}: "
                    f"{entry['sources']:.0f} sources -> "
                    f"{entry['successors']:.0f} successors in "
                    f"{entry['batches']:.0f} batches, busy {busy:.4f}s "
                    f"({rate:,.0f} states/sec)"
                )
        if self.phases:
            rendered = ", ".join(
                f"{name} {seconds:.4f}s" for name, seconds in self.phases.items()
            )
            lines.append(f"{indent}phases: {rendered}")
        return "\n".join(lines)

    def summary(self, indent: str = "") -> str:
        """:meth:`format` plus the per-level table and peak RSS -- the one
        coherent table the CLI's ``--stats`` flag prints."""
        lines = [self.format(indent)]
        if self.engine != "full":
            lines.append(f"{indent}engine: {self.engine}")
        detected = (f"; {self.fingerprint_collisions} collision(s) detected"
                    if self.fingerprint_collisions else "")
        lines.append(
            f"{indent}fingerprints: 64-bit FNV-1a, collision probability "
            f"bound {self.collision_probability_bound:.3g} over "
            f"{self.states} states{detected}")
        if self.levels:
            header = (f"{indent}per-level: "
                      f"{'level':>5} {'frontier':>9} {'states':>8} "
                      f"{'real-edges':>11} {'stutter':>8}")
            lines.append(header)
            rows = list(enumerate(self.levels))
            if len(rows) > 24:  # keep deep runs readable
                rows = rows[:12] + [None] + rows[-12:]
            for row in rows:
                if row is None:
                    lines.append(f"{indent}           ...")
                    continue
                level, entry = row
                lines.append(
                    f"{indent}           "
                    f"{level:>5} {entry['frontier']:>9} {entry['states']:>8} "
                    f"{entry['edges']:>11} {entry['stutter']:>8}"
                )
        if self.peak_rss_kb:
            lines.append(f"{indent}peak RSS: {self.peak_rss_kb / 1024.0:,.1f} MiB")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict snapshot (stable keys; for CheckResult.stats and
        machine consumption)."""
        return {
            "states": self.states,
            "edges": self.edges,
            "stutter_edges": self.stutter_edges,
            "init_states": self.init_states,
            "depth": self.depth,
            "states_per_sec": self.states_per_sec,
            "explore_seconds": self.explore_seconds,
            "phases": dict(self.phases),
            "workers": self.workers,
            "worker_stats": {wid: dict(entry)
                             for wid, entry in self.worker_stats.items()},
            "coordinator_idle_seconds": self.coordinator_idle_seconds,
            "worker_retries": dict(self.worker_retries),
            "levels": [dict(row) for row in self.levels],
            "levels_seen": self.levels_seen,
            "peak_rss_kb": self.peak_rss_kb,
            "engine": self.engine,
            "fingerprint_collisions": self.fingerprint_collisions,
            "collision_probability_bound": self.collision_probability_bound,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The machine-readable twin of :meth:`format`: the
        :meth:`as_dict` snapshot as canonical (sorted-key) JSON.  This is
        what ``--stats-json PATH`` writes and what the checking service
        stores in its result cache."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def __repr__(self) -> str:
        return (f"ExploreStats(states={self.states}, edges={self.edges}, "
                f"stutter={self.stutter_edges}, depth={self.depth}, "
                f"states_per_sec={self.states_per_sec:.0f})")


def _peak_rss_kb() -> int:
    """The process's peak resident set size in KiB (0 where unavailable).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalise to KiB."""
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - macOS units
            peak //= 1024
        return int(peak)
    except Exception:  # pragma: no cover - non-POSIX platforms
        return 0


def maybe_phase(stats: Optional[ExploreStats], name: str):
    """``stats.phase(name)`` or a no-op context manager when stats is None."""
    if stats is not None:
        return stats.phase(name)
    return _NULL_CONTEXT


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()
