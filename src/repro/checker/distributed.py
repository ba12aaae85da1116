"""Distributed BFS exploration across worker machines, bit-for-bit.

:func:`explore_distributed` runs :func:`repro.checker.bfs.drive` on the
compact engine with the expensive halves -- successor enumeration and
the visited set -- spread over remote **worker nodes**
(:mod:`repro.service.worker`, the ``repro worker`` process), while the
coordinator merges every level strictly in frontier order.  The result
is *the same graph*, bit for bit: node numbering, BFS parents, edge
counts, budget behaviour, and the streaming
:class:`~repro.checker.digest.GraphDigest` all match a single-machine
run -- for any worker count, any request interleaving, and any history
of node failures (``tests/test_distributed_differential.py``,
``tests/test_distributed_faults.py``).

Sharding model
--------------

The 64-bit fingerprint space is split once, at run start, into one
contiguous **pristine range** per worker.  Each worker *owns* the
visited-set partition for its ranges: the coordinator keeps only the
node-ordered ``packed`` / ``parent`` columns (enough to regenerate
traces and to checkpoint) and never holds a packed->node map.  A level
is four
phases: **expand** (sources go to the owner of their fingerprint, which
streams back successors *and their fingerprints* -- the dominant
per-state cost, so it scales with the node count), **lookup** (owners
say which of the level's unique successors they already know), **merge**
(local, serial, frontier order: the whole determinism argument) and
**adopt** (new states go to their owners).  Expand and lookup are pure
and adopt is idempotent, so re-sent or duplicated requests cannot skew
anything.  Workers deal only in packed ints and fingerprints, so a spec
whose states do not pack is refused before any worker is loaded.

Failure model
-------------

Transport errors are the fault signal: every wire operation is retried a
few times (absorbing injected/transient drops -- see
:class:`~repro.service.wire.NetFaultPlan`), and a node whose link keeps
failing is declared **lost**.  A heartbeat monitor thread polls
``/healthz`` and aborts the in-flight link of a node that stops
answering, so a *hung* worker (as opposed to a dead one) also surfaces
as a transport error instead of blocking the run.  On a loss the
coordinator moves the dead node's pristine ranges to the survivors with
the fewest ranges (ties to the lowest index), rebuilds the orphaned
visited partitions from its own packed column (re-**adopt**), and
re-ships only the still-unanswered sources of the current level
(bounded re-expansion).  Because ranges only ever change *owner* --
never shape -- the per-level partition counts recorded in checkpoints
and goldens are identical with and without failures.

Durability: with ``checkpoint=`` the coordinator appends a compact
level-log record every ``checkpoint_every`` levels, plus a
``"distributed"`` section (pristine ranges, the per-level partition
counts added since the previous record).  Its logs are therefore *also*
plain compact checkpoints:
:func:`~repro.checker.compact.resume_compact` can finish them on one
machine, and :func:`resume_distributed` can finish a single-machine
compact snapshot on a cluster.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel import packed
from ..spec import Spec
from ..service.wire import NetFaultPlan, ProtocolError, WorkerLink
from .bfs import RunOptions, Serial, drive, resolve_options
from .checkpoint import (
    COMPACT_CHECKPOINT_MODE,
    Checkpoint,
    CheckpointError,
    LevelLog,
    _SAME_PATH,
    read_checkpoint,
)
from .compact import (
    CompactEngine,
    CompactGraph,
    _seed_compact,
    restore_compact,
)
from .parallel import WorkerFailure
from .stats import ExploreStats

__all__ = [
    "explore_distributed",
    "resume_distributed",
    "partition_ranges",
    "range_index",
    "LocalWorkerPool",
    "spawn_local_workers",
    "WorkerFailure",
    "NetFaultPlan",
]

_FP_SPACE = 1 << 64

# transport attempts per wire operation before a node is declared lost;
# absorbs NetFaultPlan drops and real transient hiccups alike
_WIRE_ATTEMPTS = 3

# consecutive failed health probes before the monitor aborts a node's link
_HEARTBEAT_MISSES = 2


def partition_ranges(workers: int) -> List[Tuple[int, int]]:
    """The pristine N-way split of the 64-bit fingerprint space:
    contiguous half-open ranges, remainder folded into the last one.
    Fixed for the lifetime of a run -- rebalancing moves whole ranges
    between owners, never reshapes them -- so everything keyed on range
    index (partition counts, goldens) is fault-independent."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    width = _FP_SPACE // workers
    return [(i * width, (i + 1) * width if i < workers - 1 else _FP_SPACE)
            for i in range(workers)]


def range_index(fingerprint: int, ranges: Sequence[Tuple[int, int]]) -> int:
    """Which pristine range owns *fingerprint* (uniform-width math, no
    scan; the last range absorbs the division remainder)."""
    width = ranges[0][1] - ranges[0][0]
    return min(fingerprint // width, len(ranges) - 1)


class _NodeLost(Exception):
    """Internal control flow: a worker node stopped answering."""

    def __init__(self, node: "_Node", cause: BaseException):
        super().__init__(f"worker node {node.index} ({node.url}) lost: "
                         f"{cause}")
        self.node = node
        self.cause = cause


class _Node:
    """Coordinator-side handle for one worker node."""

    __slots__ = ("index", "url", "link", "alive", "suspect", "misses",
                 "collisions")

    def __init__(self, index: int, url: str,
                 timeout: Optional[float], fault: Optional[NetFaultPlan]):
        self.index = index
        self.url = url
        self.link = WorkerLink(url, timeout=timeout, fault=fault)
        self.alive = True
        self.suspect = False  # heartbeat verdict; confirmed on next op
        self.misses = 0
        self.collisions = 0  # partition fp-collision total (from /adopt)


class _HeartbeatMonitor(threading.Thread):
    """Polls ``/healthz`` on every live node; a node that misses
    ``_HEARTBEAT_MISSES`` consecutive probes gets its link aborted, which
    turns any blocked coordinator read into an immediate transport error
    (the signal the fault machinery keys on).  Probes use their own
    short-lived links so they can never interfere with run traffic."""

    def __init__(self, nodes: List[_Node], interval: float):
        super().__init__(daemon=True, name="repro-heartbeat")
        self._nodes = nodes
        self._interval = interval
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        timeout = max(self._interval, 0.25)
        while not self._stop.wait(self._interval):
            for node in self._nodes:
                if not node.alive or node.suspect:
                    continue
                probe = WorkerLink(node.url, timeout=timeout)
                try:
                    probe.get("/healthz")
                    node.misses = 0
                except (OSError, ProtocolError):
                    node.misses += 1
                finally:
                    probe.close()
                if node.misses >= _HEARTBEAT_MISSES:
                    node.suspect = True
                    node.link.abort()


class _Coordinator:
    """One distributed run's fleet: nodes, range ownership, the wire
    phases of a level, and the per-level partition manifest.  What a
    level *does* with them is :class:`_Distributed`'s business.

    ``column`` is the graph's node-ordered packed column and ``fp_of``
    maps every value in it (and, as levels proceed, every successor
    value the workers report) to its fingerprint.  The starting column
    is fingerprinted here, once; from then on the workers compute every
    new fingerprint (the per-state hot spot) and the coordinator only
    looks them up -- which is why adding worker nodes actually speeds
    the run up.  The column is also what rebuilds a lost node's
    partitions: every interned node is in it."""

    def __init__(self, graph: CompactGraph, urls: Sequence[str],
                 stats: Optional[ExploreStats],
                 heartbeat: Optional[float],
                 worker_timeout: Optional[float],
                 net_fault: Optional[NetFaultPlan],
                 fault_hook: Optional[Callable],
                 ranges: Optional[List[Tuple[int, int]]] = None):
        if not urls:
            raise ValueError("explore_distributed needs at least one "
                             "worker URL")
        spec = graph.spec
        fingerprint = graph.codec.fingerprint
        self.column = graph.packed
        self.fp_of: Dict[int, int] = {value: fingerprint(value)
                                      for value in graph.packed}
        self.stats = stats
        self.nodes = [_Node(i, url, worker_timeout, net_fault)
                      for i, url in enumerate(urls)]
        # pristine ranges: one per *initial* worker; ownership starts 1:1
        # (or round-robin when resuming onto a different cluster size)
        self.ranges = ranges if ranges is not None \
            else partition_ranges(len(self.nodes))
        self.owner = [i % len(self.nodes) for i in range(len(self.ranges))]
        self.level_partitions: List[List[int]] = []
        self._fault_pickle = (
            base64.b64encode(pickle.dumps(
                fault_hook, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")
            if fault_hook is not None else None)
        self._spec_pickle = base64.b64encode(
            pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.nodes)),
            thread_name_prefix="repro-dist")
        self._monitor: Optional[_HeartbeatMonitor] = None
        self._heartbeat = heartbeat
        self.idle = 0.0
        if stats is not None:
            for node in self.nodes:
                stats.record_node_label(node.index, node.url)

    def start(self) -> None:
        if self._heartbeat is not None:
            self._monitor = _HeartbeatMonitor(self.nodes, self._heartbeat)
            self._monitor.start()

    def close(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        for node in self.nodes:
            node.link.close()
        self._pool.shutdown(wait=False)

    # -- node bookkeeping -----------------------------------------------------

    def alive_nodes(self) -> List[_Node]:
        return [node for node in self.nodes if node.alive]

    def _owned_ranges(self, node: _Node) -> List[Tuple[int, int]]:
        return [self.ranges[i] for i, w in enumerate(self.owner)
                if w == node.index]

    def _with_retries(self, node: _Node, attempt: Callable[[], object]):
        """Run one wire operation, absorbing up to ``_WIRE_ATTEMPTS``
        transport failures (injected drops, transient resets).  A node
        already flagged by the heartbeat, or one that exhausts the
        attempts, is reported as lost."""
        last: Optional[BaseException] = None
        for _ in range(_WIRE_ATTEMPTS):
            if not node.alive:
                raise _NodeLost(node, last or ConnectionError("node dead"))
            try:
                return attempt()
            except (OSError, ConnectionError) as exc:
                last = exc
                if self.stats is not None:
                    self.stats.record_retry("wire")
                if node.suspect:
                    break
        raise _NodeLost(node, last or ConnectionError("unknown"))

    def _column_entries(self, ridxs: Iterable[int]) -> List[List[int]]:
        """The ``[packed, node]`` rows of the column whose fingerprints
        fall in the pristine ranges *ridxs*."""
        taken, fp_of, ranges = set(ridxs), self.fp_of, self.ranges
        return [[value, node_id] for node_id, value in enumerate(self.column)
                if range_index(fp_of[value], ranges) in taken]

    def _on_loss(self, node: _Node) -> None:
        """Declare *node* dead and move its pristine ranges to the
        survivors with the fewest ranges (ties to the lowest index), then
        rebuild the orphaned visited partitions on their new owners from
        the column."""
        if not node.alive:
            return
        node.alive = False
        node.link.abort()
        if self.stats is not None:
            self.stats.record_node_loss()
        survivors = self.alive_nodes()
        if not survivors:
            raise WorkerFailure(
                f"all {len(self.nodes)} worker nodes were lost; the last "
                f"to go was node {node.index} ({node.url})")
        orphaned = [i for i, w in enumerate(self.owner)
                    if w == node.index]
        if not orphaned:
            return
        loads = {n.index: sum(1 for w in self.owner if w == n.index)
                 for n in survivors}
        moved: Dict[int, List[int]] = {}
        for ridx in orphaned:
            target = min(survivors,
                         key=lambda n: (loads[n.index], n.index))
            self.owner[ridx] = target.index
            loads[target.index] += 1
            moved.setdefault(target.index, []).append(ridx)
        if self.stats is not None:
            self.stats.record_rebalance(len(orphaned))
        for target_index, ridxs in moved.items():
            target = self.nodes[target_index]
            entries = self._column_entries(ridxs)
            try:
                self._with_retries(target, lambda t=target, e=entries: (
                    t.link.post("/ranges",
                                {"ranges": self._owned_ranges(t)}),
                    self._record_adopt(
                        t, t.link.post("/adopt", {"entries": e})),
                ))
            except _NodeLost as lost:
                # the rescue target died too: recurse, which re-moves
                # these ranges (and the target's own) to the remaining
                # survivors
                self._on_loss(lost.node)

    def _record_adopt(self, node: _Node, response: Dict) -> Dict:
        node.collisions = int(response.get("collisions", node.collisions))
        return response

    # -- generic fan-out phase ------------------------------------------------

    def _fan_out(self, groups: Callable[[], Dict[int, object]],
                 op: Callable[[_Node, object], None]) -> None:
        """Run ``op(node, item)`` concurrently for the node->item map
        *groups* produces, handling losses (rebalance + regroup) until
        the map comes back empty.  *groups* must shrink as ops succeed
        (ops record results and consume their inputs), so re-grouping
        after a loss only re-ships unanswered work."""
        while True:
            grouped = groups()
            if not grouped:
                return
            wait_from = perf_counter()
            futures = [self._pool.submit(op, self.nodes[index], item)
                       for index, item in grouped.items()]
            lost: List[_NodeLost] = []
            for future in as_completed(futures):
                try:
                    future.result()
                except _NodeLost as exc:
                    lost.append(exc)
            self.idle += perf_counter() - wait_from
            for exc in lost:
                self._on_loss(exc.node)

    # -- wire phases ----------------------------------------------------------

    def load_workers(self) -> None:
        """(Re)initialise every node for this run and rebuild its visited
        partition from the column (the seed states, or a checkpoint's
        whole column on a resume)."""
        pending = {node.index: node for node in self.nodes if node.alive}

        def op(node: _Node, _item: object) -> None:
            payload = {"spec_pickle": self._spec_pickle,
                       "worker": node.index,
                       "ranges": self._owned_ranges(node)}
            if self._fault_pickle is not None:
                payload["fault_pickle"] = self._fault_pickle
            self._with_retries(
                node, lambda: node.link.post("/load", payload))
            entries = self._column_entries(
                i for i, w in enumerate(self.owner) if w == node.index)
            if entries:
                self._with_retries(node, lambda: self._record_adopt(
                    node, node.link.post("/adopt", {"entries": entries})))
            pending.pop(node.index, None)

        self._fan_out(
            lambda: {i: n for i, n in pending.items() if n.alive}, op)

    def expand_phase(self, level: int, values: List[int],
                     results: Dict[int, List[int]],
                     fps: Dict[int, List[int]]) -> None:
        """Phase 1: ship each frontier value (keyed by its position) to
        the owner of its fingerprint; collect per-position successor
        batches into *results* and their worker-computed fingerprints
        into *fps*.  Streamed per source, so a node that dies mid-level
        only costs its unanswered sources (bounded re-expansion)."""
        pending: Dict[int, int] = dict(enumerate(values))

        def groups() -> Dict[int, List[Tuple[int, int]]]:
            grouped: Dict[int, List[Tuple[int, int]]] = {}
            for pos, value in pending.items():
                owner = self.owner[range_index(self.fp_of[value],
                                               self.ranges)]
                grouped.setdefault(owner, []).append((pos, value))
            return grouped

        # one attempt = one /expand of that node's *still unanswered*
        # share; answered positions leave `pending` as their lines stream in
        def op(node: _Node, items: List[Tuple[int, int]]) -> None:
            def attempt() -> None:
                remaining = [[pos, value] for pos, value in items
                             if pos in pending]
                if not remaining:
                    return
                answered = 0
                successors = 0
                tail = None
                for line in node.link.post_stream(
                        "/expand", {"level": level, "sources": remaining}):
                    if "pos" in line:
                        pos = int(line["pos"])
                        succ = line["succ"]
                        results[pos] = succ
                        fps[pos] = line.get("fps") or []
                        if pending.pop(pos, None) is not None:
                            answered += 1
                            successors += len(succ)
                    elif "done" in line:
                        tail = line
                if tail is None:
                    raise ConnectionError("expand stream truncated")
                if self.stats is not None and answered:
                    self.stats.record_worker_batch(
                        node.index, sources=answered,
                        successors=successors,
                        busy_seconds=float(tail.get("busy", 0.0)))

            try:
                self._with_retries(node, attempt)
            except _NodeLost:
                still = sum(1 for pos, _p in items if pos in pending)
                if self.stats is not None and still:
                    self.stats.record_reshipped(still)
                raise

        self._fan_out(groups, op)

    def _range_phase(self, items_by_range: Dict[int, list],
                     send: Callable[[_Node, list], None]) -> None:
        """Phases 2 and 4: *send* every owner the items of the ranges it
        owns, in one request per node.  A range leaves *pending* only
        once its owner answered, so after a loss exactly the unanswered
        ranges go to their new owners."""
        pending = dict(items_by_range)

        def groups() -> Dict[int, List[int]]:
            grouped: Dict[int, List[int]] = {}
            for ridx in pending:
                grouped.setdefault(self.owner[ridx], []).append(ridx)
            return grouped

        def op(node: _Node, ridxs: List[int]) -> None:
            def attempt() -> None:
                todo = [r for r in ridxs if r in pending]
                if not todo:
                    return
                send(node, [item for r in todo for item in pending[r]])
                for r in todo:
                    pending.pop(r, None)

            self._with_retries(node, attempt)

        self._fan_out(groups, op)

    def lookup_level(self, values_by_range: Dict[int, List[int]],
                     known: Dict[int, int]) -> None:
        """Phase 2: ask each owner which of the level's unique successor
        values its partition has already seen."""
        def send(node: _Node, values: List[int]) -> None:
            response = node.link.post("/lookup", {"values": values})
            nodes = response.get("nodes") or []
            if len(nodes) != len(values):
                raise ConnectionError("lookup response misaligned")
            for value, node_id in zip(values, nodes):
                if node_id >= 0:
                    known[value] = node_id

        self._range_phase(values_by_range, send)

    def adopt_level(self, entries_by_range: Dict[int, List[List[int]]]
                    ) -> None:
        """Phase 4: push the level's newly interned states to the owners
        of their fingerprints.  Idempotent on the worker, so retries and
        duplicates are harmless."""
        def send(node: _Node, entries: List[List[int]]) -> None:
            self._record_adopt(
                node, node.link.post("/adopt", {"entries": entries}))

        self._range_phase(entries_by_range, send)

    # -- run summary ----------------------------------------------------------

    def partition_collisions(self) -> int:
        return sum(node.collisions for node in self.nodes if node.alive)

    def record_partitions(self, fingerprints: Iterable[int]) -> None:
        """Append one manifest row: how the states with these
        *fingerprints* (a level's new ones) spread over the ranges."""
        counts = [0] * len(self.ranges)
        for fp in fingerprints:
            counts[range_index(fp, self.ranges)] += 1
        self.level_partitions.append(counts)

    def distributed_section(self) -> Dict[str, object]:
        """The ``"distributed"`` checkpoint section: everything a resume
        (or a golden) needs that the engine checkpoint does not carry."""
        return {
            "worker_urls": [node.url for node in self.nodes],
            "ranges": [[lo, hi] for lo, hi in self.ranges],
            "level_partitions": self.level_partitions,
        }


# -- the distributed configuration -------------------------------------------


class _Distributed(Serial):
    """The distributed configuration of :func:`~repro.checker.bfs.drive`:
    the visited set lives on the workers, partitioned by fingerprint
    range, and the coordinator keeps the node-ordered columns.  The
    coordinator is the run's pool -- its waits are the idle time,
    closing it ends the run -- and snapshots carry its
    ``"distributed"`` section."""

    def __init__(self, coord: _Coordinator, engine: CompactEngine,
                 stats: Optional[ExploreStats], options: RunOptions,
                 level: int):
        super().__init__(engine, stats, options)
        self.coord = coord
        self.level = level  # the one being expanded; fault hooks key on it

    @property
    def idle(self) -> float:
        return self.coord.idle

    def load(self) -> Iterable[int]:
        """(Re)initialise the fleet for this run; returns the
        fingerprints of the starting column, in node order."""
        # the coordinator's column is authoritative: the visited map
        # lives on the workers from here on, rebuilt from that column
        self.engine.graph.visited = {}
        self.coord.load_workers()
        return self.coord.fp_of.values()

    def expand_level(self, frontier: List[int]) -> List[int]:
        coord, graph = self.coord, self.engine.graph
        fp_of, ranges = coord.fp_of, coord.ranges
        # phase 1: expand, sharded by source fingerprint; the workers
        # also hand back each successor's fingerprint
        results: Dict[int, List[int]] = {}
        succ_fps: Dict[int, List[int]] = {}
        coord.expand_phase(self.level, [graph.packed[src] for src in frontier],
                           results, succ_fps)
        self.level += 1
        # phase 2: dedup query for the level's unique successor values
        unique: Dict[int, int] = {}
        for pos in range(len(frontier)):
            fps = succ_fps[pos]
            for i, value in enumerate(results[pos]):
                if value not in unique:
                    fp_of[value] = fps[i]
                    unique[value] = range_index(fps[i], ranges)
        values_by_range: Dict[int, List[int]] = {}
        for value, ridx in unique.items():
            values_by_range.setdefault(ridx, []).append(value)
        known: Dict[int, int] = {}
        coord.lookup_level(values_by_range, known)
        # phase 3: serial merge in frontier order, mirroring
        # CompactGraph.merge_successors at every point that feeds the
        # graph -- CompactGraph._intern_new does the budget check and the
        # node-digest stream, edge dedup and the edge digest follow suit
        level_new: Dict[int, int] = {}
        next_frontier: List[int] = []
        for pos, src in enumerate(frontier):
            dsts: List[int] = []
            seen: set = set()
            for value in results[pos]:
                node = known.get(value)
                if node is None:
                    node = level_new.get(value)
                if node is None:
                    node = graph._intern_new(value, src, fp_of[value])
                    level_new[value] = node
                    next_frontier.append(node)
                if node != src and node not in seen:
                    seen.add(node)
                    dsts.append(node)
            graph._edge_count += len(dsts)
            graph._digest.absorb_edges(src, dsts)
        # phase 4: push the new states to their owners
        entries_by_range: Dict[int, List[List[int]]] = {}
        for value, node in level_new.items():
            ridx = range_index(fp_of[value], ranges)
            entries_by_range.setdefault(ridx, []).append([value, node])
        if entries_by_range:
            coord.adopt_level(entries_by_range)
        coord.record_partitions(fp_of[value] for value in level_new)
        graph._collisions = coord.partition_collisions()
        return next_frontier

    def snapshot(self, log: LevelLog, frontier: List[int], depth: int,
                 levels: int, elapsed: float) -> None:
        log.append_level(self.engine.graph, self.engine.snapshot, frontier,
                         depth, levels, elapsed, self.stats,
                         self.coord.distributed_section())

    def close(self) -> None:
        self.coord.close()


def _run(urls: Sequence[str], graph: CompactGraph, frontier: List[int],
         stats: Optional[ExploreStats], checkpoint: Optional[str],
         checkpoint_every: int, start: float,
         resumed: Optional[Checkpoint] = None, **fleet: object):
    """Bring up a coordinator (*fleet*: heartbeat, worker_timeout,
    net_fault, fault_hook) for *graph* -- seeded, or restored from
    *resumed* -- load the workers, and drive the run."""
    section = (resumed.distributed or {}) if resumed else {}
    ranges = [(lo, hi) for lo, hi in section.get("ranges", [])]
    partitions = [list(row) for row in section.get("level_partitions", [])]
    coord = _Coordinator(graph, list(urls), stats, ranges=ranges or None,
                         **fleet)
    coord.level_partitions = partitions
    options = RunOptions(len(coord.nodes), None, None, checkpoint,
                         checkpoint_every)
    config = _Distributed(coord, CompactEngine(graph), stats, options,
                          resumed.levels if resumed else 0)
    try:
        coord.start()
        seed_fingerprints = config.load()
        if resumed is None:  # the manifest's level-0 row: the seed states
            coord.record_partitions(seed_fingerprints)
    except BaseException:
        coord.close()
        raise
    graph = drive(config, frontier, start, resumed)
    graph.partition_ranges = list(coord.ranges)
    graph.level_partitions = [list(row) for row in coord.level_partitions]
    return graph


# -- public API ---------------------------------------------------------------


def explore_distributed(
    spec: Spec,
    workers: Sequence[str],
    max_states: int = 200_000,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    heartbeat: Optional[float] = 2.0,
    worker_timeout: Optional[float] = None,
    net_fault: Optional[NetFaultPlan] = None,
    fault_hook: Optional[Callable] = None,
) -> CompactGraph:
    """Explore ``Init ∧ □[N]_v`` across the worker nodes at *workers*
    (URLs of running ``repro worker`` processes).

    Returns the :class:`~repro.checker.compact.CompactGraph` a
    single-machine compact run would -- identical node numbering,
    parents, edges, digests, and
    :class:`~repro.checker.graph.StateSpaceExplosion` behaviour for any
    worker count and failure history.  The run survives worker loss as
    long as one node stays up; the coordinator itself is made durable
    with ``checkpoint=`` + :func:`resume_distributed`.  A spec whose
    states do not pack raises
    :class:`~repro.kernel.packed.CompactUnsupported` before any worker
    is contacted.

    ``heartbeat`` is the health-probe interval in seconds (``None``
    disables the monitor -- then only ``worker_timeout`` bounds a hung
    node); ``worker_timeout`` caps each wire operation.  ``net_fault``
    (a :class:`~repro.service.wire.NetFaultPlan`) and ``fault_hook`` (a
    picklable callable shipped to every worker, invoked per ``/expand``)
    are the chaos-test seams; leave both ``None`` in production.
    """
    start = perf_counter()
    problem = packed.support_problem(spec)
    if problem is not None:
        raise packed.CompactUnsupported(
            f"distributed exploration needs a spec whose states pack, and "
            f"{spec.name!r} does not ({problem}); explore it on one "
            f"machine with repro check --workers N")
    graph, frontier = _seed_compact(spec, max_states)
    return _run(workers, graph, frontier, stats, checkpoint,
                checkpoint_every, start, heartbeat=heartbeat,
                worker_timeout=worker_timeout, net_fault=net_fault,
                fault_hook=fault_hook)


def resume_distributed(
    path: str,
    workers: Sequence[str],
    spec: Spec,
    *,
    max_states: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    checkpoint: object = _SAME_PATH,
    checkpoint_every: Optional[int] = None,
    heartbeat: Optional[float] = 2.0,
    worker_timeout: Optional[float] = None,
    net_fault: Optional[NetFaultPlan] = None,
    fault_hook: Optional[Callable] = None,
) -> CompactGraph:
    """Continue a compact snapshot on the cluster at *workers*,
    bit-for-bit -- whether it came from a distributed coordinator (its
    ``"distributed"`` section restores the pristine ranges and the
    partition-count manifest) or from a single-machine compact run
    (fresh ranges are cut for the current cluster).  A full-state
    snapshot raises :class:`~repro.checker.CheckpointError`: worker
    nodes hold packed partitions only.

    The worker partitions are rebuilt from the snapshot's own packed
    column, so resuming does not require the original workers -- any
    cluster (any size, fresh processes) continues the run.
    """
    start = perf_counter()
    loaded = read_checkpoint(path)
    if loaded.mode != COMPACT_CHECKPOINT_MODE:
        written = ("with reduction config "
                   f"{loaded.reduction_config!r}"
                   if loaded.reduction_config is not None
                   else "by the full-state engine")
        raise CheckpointError(
            f"{path}: checkpoint was written {written}, but worker nodes "
            f"hold packed partitions and expand unreduced; resume it on "
            f"one machine (repro check --resume / repro.checker.resume)")
    options = resolve_options(len(workers), None, None, checkpoint,
                              checkpoint_every, resumed=loaded)
    graph = restore_compact(loaded, spec, max_states)
    loaded.restore_stats(stats)
    return _run(workers, graph, list(loaded.frontier), stats,
                options.checkpoint, options.checkpoint_every, start, loaded,
                heartbeat=heartbeat, worker_timeout=worker_timeout,
                net_fault=net_fault, fault_hook=fault_hook)


# -- localhost worker fleets --------------------------------------------------


class LocalWorkerPool:
    """A fleet of localhost ``repro worker`` subprocesses, for tests and
    the quickstart demo.  ``urls`` feed straight into
    :func:`explore_distributed`; :meth:`kill` SIGKILLs one worker (the
    chaos tests' node-loss lever); the pool is a context manager that
    terminates everything on exit."""

    def __init__(self, processes: List[subprocess.Popen], urls: List[str],
                 directory: str, owns_directory: bool):
        self.processes = processes
        self.urls = urls
        self.directory = directory
        self._owns_directory = owns_directory

    def kill(self, index: int) -> None:
        """SIGKILL worker *index* (no shutdown handshake -- the
        coordinator must discover the loss through the wire)."""
        self.processes[index].kill()
        self.processes[index].wait()

    def alive(self) -> List[int]:
        return [i for i, proc in enumerate(self.processes)
                if proc.poll() is None]

    def terminate(self) -> None:
        for proc in self.processes:
            if proc.poll() is None:
                proc.kill()
        for proc in self.processes:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.terminate()


def spawn_local_workers(count: int, directory: Optional[str] = None,
                        startup_timeout: float = 30.0) -> LocalWorkerPool:
    """Launch *count* ``repro worker`` subprocesses on ephemeral
    localhost ports and wait until all endpoint files appear."""
    if count < 1:
        raise ValueError(f"need at least one worker, got {count}")
    owns = directory is None
    directory = directory or tempfile.mkdtemp(prefix="repro-workers-")
    import repro

    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    processes: List[subprocess.Popen] = []
    endpoint_files: List[str] = []
    try:
        for i in range(count):
            endpoint = os.path.join(directory, f"worker-{i}.json")
            try:
                os.unlink(endpoint)
            except FileNotFoundError:
                pass
            endpoint_files.append(endpoint)
            log = open(os.path.join(directory, f"worker-{i}.log"), "w")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--host", "127.0.0.1", "--port", "0",
                 "--endpoint-file", endpoint],
                stdout=log, stderr=subprocess.STDOUT, env=env)
            log.close()  # the child holds its own handle
            processes.append(proc)
        urls: List[str] = []
        deadline = time.monotonic() + startup_timeout
        for i, endpoint in enumerate(endpoint_files):
            while True:
                if processes[i].poll() is not None:
                    raise RuntimeError(
                        f"worker {i} exited with code "
                        f"{processes[i].returncode} before coming up "
                        f"(see {directory}/worker-{i}.log)")
                if os.path.exists(endpoint):
                    with open(endpoint) as handle:
                        urls.append(json.load(handle)["url"])
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"worker {i} did not come up within "
                        f"{startup_timeout}s")
                time.sleep(0.02)
    except BaseException:
        for proc in processes:
            if proc.poll() is None:
                proc.kill()
        if owns:
            shutil.rmtree(directory, ignore_errors=True)
        raise
    return LocalWorkerPool(processes, urls, directory, owns_directory=owns)
