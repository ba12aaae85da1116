"""The compact engine: fingerprint-only BFS over packed states.

This is the repo's rendition of TLC's scale trick (Yu, Manolios,
Lamport, *Model Checking TLA+ Specifications*): instead of retaining a
dict-backed :class:`~repro.kernel.state.State` per visited state, the
explorer interns **one packed int per state** (see
:mod:`repro.kernel.packed`) plus a parent id, and regenerates everything
else -- full states, counterexample traces, invariant verdicts -- on
demand by decoding packed ints and re-walking BFS parents with the
compiled action plan.

Design contract (checked exhaustively by
``tests/test_compact_differential.py``): a compact run of a spec is
**bit-for-bit equivalent** to a full run -- same node numbering, same
BFS parent tree, same edge counts, same
:class:`~repro.checker.graph.StateSpaceExplosion` insertion point, same
verdicts and regenerated traces, and the same streaming
:class:`~repro.checker.digest.GraphDigest` -- for any worker count and
across checkpoint/resume.  The engine differs from the full one only in
what it *retains*.

Two scale consequences:

* memory per visited state drops from a boxed dict to roughly one small
  int (10^7 states fit in laptop RAM), and
* the packed successor plan memoizes per-conjunct footprints, which on
  branchy specs is a >5x states/sec win (CI gates this on the
  queue-chain benchmark).

Interning is keyed on *packed ints*, which are bijective with states --
so unlike classic fingerprint-set exploration, state interning here can
never merge two distinct states.  64-bit fingerprints are still
computed (they feed the graph digest and the service cache), and the
engine counts any fingerprint collisions it observes on
``ExploreStats.fingerprint_collisions`` instead of staying silent; the
birthday-bound collision probability is reported in
``ExploreStats.summary()`` / ``to_json()``.  Interning computes none of
them: the graph folds the fingerprints of every node interned since the
last read in one lane-parallel batch
(:meth:`~repro.kernel.packed.PackedCodec.fingerprints`) when the digest,
a checkpoint record or the collision count is read, absorbing them in
node-id order -- so the digest is the one an eager fold gives, and a run
cut short by its state budget folds none.

The graph keeps its edges too, as CSR arrays (an ``array('I')`` of
successor ids plus an offsets array, about 4 bytes per edge), so every
graph query -- SCCs, shortest paths, lasso construction -- runs on it
through :class:`~repro.checker.graph.GraphQueries`, and temporal
properties, refinement and certificates check on packed rows exactly as
on a :class:`~repro.checker.graph.StateGraph`.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel.behavior import FiniteBehavior
from ..kernel.expr import Env, Expr, to_expr
from ..kernel.guard import ERR, Leaf
from ..kernel.packed import CompactUnsupported, PackedPlan
from ..spec import Spec
from .bfs import drive, resolve_options
from .checkpoint import (
    COMPACT_CHECKPOINT_MODE,
    Checkpoint,
    CheckpointError,
    LevelLog,
    _SAME_PATH,
    read_checkpoint,
    run_header,
)
from .digest import GraphDigest
from .explorer import initial_states
from .graph import GraphQueries, StateSpaceExplosion
from .parallel import local_level
from .results import CheckResult, Counterexample
from .stats import ExploreStats, maybe_phase

__all__ = [
    "CompactGraph",
    "CompactUnsupported",
    "explore_compact",
    "resume_compact",
    "save_compact_checkpoint",
    "check_invariant_compact",
]

class _PackedStatesView:
    """Read-only sequence of decoded states, materialised per access.

    Gives a :class:`CompactGraph` the ``graph.states[node]`` surface the
    checking layers and the CLI's ``--show`` read, without retaining any
    :class:`~repro.kernel.state.State` objects.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "CompactGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.packed)

    def __getitem__(self, node: int):
        return self._graph.state_at(node)

    def __iter__(self):
        decode = self._graph.codec.decode
        for packed in self._graph.packed:
            yield decode(packed)


class _CsrSuccessors:
    """Read-only ``succ[i]`` of a :class:`CompactGraph`, rebuilt from
    its CSR arrays: the stutter loop first, then the deduplicated
    targets in insertion order -- equal to ``StateGraph.succ[i]``.  A
    node not expanded yet has only its stutter loop."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "CompactGraph"):
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.packed)

    def __getitem__(self, node: int) -> List[int]:
        graph = self._graph
        if not 0 <= node < len(graph.packed):
            raise IndexError(f"node {node!r} is not in this graph")
        offsets = graph._offsets
        if node + 1 < len(offsets):
            return [node, *graph._targets[offsets[node]:offsets[node + 1]]]
        return [node]


class CompactGraph(GraphQueries):
    """A reachable state graph retaining packed ints, BFS parents and
    CSR edges.

    Answers the :class:`~repro.checker.graph.StateGraph` surface the
    checking layers read (``state_count`` / ``edge_count`` /
    ``stutter_count`` / ``init_nodes`` / ``universe`` / ``states`` /
    ``succ`` / ``has_edge`` and the shared
    :class:`~repro.checker.graph.GraphQueries`) without full states:
    ``states[i]`` decodes on access.  Sources are expanded in node-id
    order, so the CSR arrays -- ``_targets`` (successor ids) and
    ``_offsets`` (where each expanded source's run starts; one more
    entry than expanded sources) -- only ever grow at the end.  The
    transition structure is also folded into a streaming
    :class:`GraphDigest`, so two explorations compare bit-for-bit.
    """

    def __init__(self, spec: Spec, plan: Optional[PackedPlan] = None,
                 max_states: Optional[int] = None):
        self.spec = spec
        self.universe = spec.universe
        self.plan = plan if plan is not None else PackedPlan(spec)
        self.codec = self.plan.codec
        self.name = spec.name
        self.max_states = max_states
        self.visited: Dict[int, int] = {}   # packed -> node id
        self.packed: List[int] = []         # node id -> packed
        self.parent: List[int] = []         # node id -> parent (-1: initial)
        self.init_nodes: List[int] = []
        self._targets = array("I")
        self._offsets = array("Q", [0])
        self.succ = _CsrSuccessors(self)
        self.states = _PackedStatesView(self)
        self._fingerprints: set = set()
        self._collisions = 0
        self._digest = GraphDigest()
        self._settled = 0   # nodes the digest and collision set absorbed

    # -- interning -----------------------------------------------------------

    def intern(self, packed: int, parent: int) -> Tuple[int, bool]:
        """Intern a packed state; returns ``(node_id, is_new)``.

        Enforces the ``max_states`` budget at insertion time exactly
        like :meth:`StateGraph.add_state`.  The node's fingerprint waits
        for :meth:`_settle`.
        """
        node = self.visited.get(packed)
        if node is not None:
            return node, False
        node = len(self.packed)
        if self.max_states is not None and node >= self.max_states:
            label = f"exploring {self.name!r} " if self.name else "exploration "
            exc = StateSpaceExplosion(
                f"{label}exceeded the state budget of "
                f"{self.max_states} states")
            exc.graph = self
            raise exc
        self.packed.append(packed)
        self.parent.append(parent)
        if parent < 0:
            self.init_nodes.append(node)
        self.visited[packed] = node
        return node, True

    def _settle(self) -> None:
        """Fold the fingerprints of the nodes interned since the last
        read in one batch: absorb ``(fingerprint, parent)`` into the
        digest's node stream in node-id order, and count collisions
        (packed keys are exact, so a collision here is *observed and
        survived*, never a silent merge)."""
        start = self._settled
        if start == len(self.packed):
            return
        fingerprints = self.codec.fingerprints(self.packed[start:])
        self._digest.absorb_nodes(fingerprints, self.parent[start:])
        self._count_collisions(fingerprints)
        self._settled = len(self.packed)

    def _count_collisions(self, fingerprints: List[int]) -> None:
        seen = self._fingerprints
        before = len(seen)
        seen.update(fingerprints)
        self._collisions += len(fingerprints) - (len(seen) - before)

    def merge_successors(self, src: int,
                         successors: Iterable[int]) -> List[int]:
        """Merge one source's successor emission; returns new node ids.

        *src* must be the next unexpanded node.  Edge accounting matches
        the full engine: stutter self-loops and repeated targets are not
        stored, and the deduplicated target list (the full engine's
        ``succ[src][1:]``) is appended to the CSR arrays and feeds the
        digest's edge stream.
        """
        if src != len(self._offsets) - 1:
            raise RuntimeError(
                f"node {src} merged out of order: the next source to "
                f"expand is {len(self._offsets) - 1}")
        new_nodes: List[int] = []
        dsts: List[int] = []
        seen: set = set()
        for packed in successors:
            node, is_new = self.intern(packed, src)
            if is_new:
                new_nodes.append(node)
            if node != src and node not in seen:
                seen.add(node)
                dsts.append(node)
        self._targets.extend(dsts)
        self._offsets.append(len(self._targets))
        self._digest.absorb_edges(src, dsts)
        return new_nodes

    def has_edge(self, src: int, dst: int) -> bool:
        """Membership test, stutter self-loops included: linear in the
        out-degree of *src*."""
        if dst == src:
            return True
        offsets = self._offsets
        if src + 1 >= len(offsets):
            return False
        return dst in self._targets[offsets[src]:offsets[src + 1]]

    # -- StateGraph-compatible surface ---------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.packed)

    @property
    def edge_count(self) -> int:
        return len(self._targets)

    @property
    def stutter_count(self) -> int:
        return len(self.packed)

    @property
    def total_edge_count(self) -> int:
        return len(self._targets) + len(self.packed)

    @property
    def fingerprint_collisions(self) -> int:
        """Distinct states observed sharing a 64-bit fingerprint."""
        self._settle()
        return self._collisions

    def state_at(self, node: int):
        """Decode node *node* back into a full ``State``."""
        self._check_node(node)
        return self.codec.decode(self.packed[node])

    def trace_to(self, node: int) -> FiniteBehavior:
        """Regenerate the counterexample trace reaching *node*.

        Decodes the BFS-parent chain and re-verifies every step against
        the compiled packed plan -- each regenerated state really is a
        successor of its predecessor, so a corrupt parent table (or an
        encoder drift) surfaces here instead of producing a bogus trace.
        """
        path = self.path_to_root(node)
        for prev, nxt in zip(path, path[1:]):
            if self.packed[nxt] not in self.plan.successors(self.packed[prev]):
                raise RuntimeError(
                    f"regenerated trace is not a behavior: node {nxt} is "
                    f"not a successor of its BFS parent {prev}; the "
                    f"parent table is corrupt or the encoder drifted")
        return FiniteBehavior([self.state_at(n) for n in path])

    # -- digests -------------------------------------------------------------

    def digest(self) -> str:
        """The streaming graph digest (see :mod:`repro.checker.digest`)."""
        self._settle()
        return self._digest.hexdigest()

    def digest_state(self) -> List[int]:
        self._settle()
        return self._digest.state()


# -- exploration -------------------------------------------------------------


class CompactEngine:
    """The compact engine seam of :mod:`repro.checker.bfs`: packed ints
    in, packed ints out, interned on the exact packed value."""

    def __init__(self, graph: CompactGraph):
        self.spec = graph.spec
        self.graph = graph
        self.payloads = graph.packed
        self.expand = graph.plan.successors
        self.merge = graph.merge_successors

    def header(self) -> Dict[str, object]:
        return _compact_header(self.graph)

    def snapshot(self, nodes: range, sources: range) -> Dict[str, object]:
        return _compact_rows(self.graph, nodes, sources)

    def settle(self, nodes: List[int]) -> None:
        """Nothing per level: the graph folds fingerprints when read."""

    def finish(self, stats: Optional[ExploreStats]) -> None:
        if stats is not None:
            stats.engine = "compact"


def explore_compact(
    spec: Spec,
    max_states: int = 200_000,
    workers: int = 1,
    stats: Optional[ExploreStats] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = 1,
    worker_timeout: Optional[float] = None,
    fault_hook: Optional[Callable] = None,
) -> CompactGraph:
    """Explore ``Init ∧ □[N]_v`` on the compact engine.

    The resulting :class:`CompactGraph` has the same node numbering,
    BFS parents, edge counts, budget behaviour, and streaming digest as
    a full :func:`~repro.checker.explorer.explore` /
    :func:`~repro.checker.parallel.explore_parallel` run of the same
    spec -- it just retains packed ints instead of states.  ``workers``
    follows the parallel explorer's conventions (``0`` auto-sizes,
    ``<= 1`` runs serially); specs the packed codec cannot represent
    raise :class:`CompactUnsupported` before any exploration happens.
    """
    start = perf_counter()
    options = resolve_options(workers, worker_timeout, fault_hook,
                              checkpoint, checkpoint_every)
    with maybe_phase(stats, "plan"):
        graph = CompactGraph(spec, max_states=max_states)
    encode = graph.codec.encode
    frontier: List[int] = []
    for state in initial_states(spec.init, spec.universe):
        node, is_new = graph.intern(encode(state), -1)
        if is_new:
            frontier.append(node)
    return drive(local_level(CompactEngine(graph), stats, options),
                 frontier, start)


# -- checkpoint / resume -----------------------------------------------------


def _compact_header(graph: CompactGraph) -> Dict[str, object]:
    """The compact engine's header fields: the codec signature lets a
    resume verify the packing layout still matches the spec."""
    return {"mode": COMPACT_CHECKPOINT_MODE,
            "codec_signature": graph.codec.signature()}


def _compact_rows(graph: CompactGraph, nodes: range,
                  sources: range) -> Dict[str, object]:
    """The compact engine's share of one record: packed ints and parents
    of *nodes*, the adjacency of *sources* without the implied stutter
    self-loop (as a full record stores it), the running edge count (a
    resume checks the adjacency against it) and the digest accumulator
    (a resume continues it)."""
    targets, offsets = graph._targets, graph._offsets
    return {
        "packed": graph.packed[nodes.start:nodes.stop],
        "parent": graph.parent[nodes.start:nodes.stop],
        "succ": [targets[offsets[src]:offsets[src + 1]].tolist()
                 for src in sources],
        "edge_count": graph.edge_count,
        "digest": graph.digest_state(),
    }


def save_compact_checkpoint(
    path: str,
    spec: Spec,
    graph: CompactGraph,
    frontier: Sequence[int],
    depth: int,
    levels: int,
    elapsed_seconds: float,
    workers: int = 1,
    checkpoint_every: int = 1,
    stats: Optional[ExploreStats] = None,
) -> None:
    """Write a fresh level log holding a compact run at a BFS level
    boundary as one record (the compact twin of
    :func:`~repro.checker.checkpoint.save_checkpoint`)."""
    header = run_header(spec.name, graph.max_states, workers,
                        checkpoint_every, _compact_header(graph))
    LevelLog(path, header).append_level(
        graph, lambda nodes, sources: _compact_rows(graph, nodes, sources),
        frontier, depth, levels, elapsed_seconds, stats)


def restore_compact(
    loaded: Checkpoint,
    spec: Spec,
    max_states: Optional[int] = None,
) -> CompactGraph:
    """Rebuild the live :class:`CompactGraph` of a compact log (already
    folded and checked by
    :func:`~repro.checker.checkpoint.read_checkpoint`) against *spec*,
    verifying the codec layout."""
    path = loaded.path
    plan = PackedPlan(spec)
    if plan.codec.signature() != loaded.codec_signature:
        raise CheckpointError(
            f"{path}: packed-state layout does not match spec "
            f"{spec.name!r}; the checkpoint is corrupt or was written "
            f"against a different spec or domain enumeration")
    packed_rows: List[int] = loaded.packed
    budget = loaded.max_states if max_states is None else max_states
    if budget is not None and len(packed_rows) > budget:
        raise StateSpaceExplosion(
            f"exploring {spec.name!r} exceeded the state budget of "
            f"{budget} states")

    graph = CompactGraph(spec, plan, max_states=budget)
    graph.packed = packed_rows
    graph.parent = loaded.parent
    graph.visited = {p: node for node, p in enumerate(packed_rows)}
    if len(graph.visited) != len(packed_rows):
        raise CheckpointError(
            f"{path}: duplicate packed states; the checkpoint is corrupt")
    graph.init_nodes = loaded.init_nodes
    targets, offsets = graph._targets, graph._offsets
    for row in loaded.succ:
        targets.extend(row)
        offsets.append(len(targets))
    if len(targets) != loaded.edge_count:
        raise CheckpointError(
            f"{path}: the stored adjacency holds {len(targets)} edges but "
            f"the log records {loaded.edge_count}; the checkpoint is "
            f"corrupt")
    graph._digest = GraphDigest.restore(loaded.digest)
    codec = plan.codec
    try:
        fingerprints = codec.fingerprints(packed_rows)
    except IndexError:  # a field code beyond its domain
        fingerprints = None
    if fingerprints is None or any(p >> codec.bits for p in packed_rows):
        raise CheckpointError(
            f"{path}: a packed state lies outside the codec's layout; the "
            f"checkpoint is corrupt")
    graph._count_collisions(fingerprints)
    graph._settled = len(packed_rows)
    return graph


def resume_compact(
    path: str,
    spec: Spec,
    *,
    workers: Optional[int] = None,
    max_states: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    checkpoint: object = _SAME_PATH,
    checkpoint_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    fault_hook: Optional[Callable] = None,
) -> CompactGraph:
    """Continue a compact exploration from a checkpoint, bit-for-bit.

    Mirrors :func:`repro.checker.checkpoint.resume` (same defaults, same
    keep-checkpointing-to-the-same-path behaviour) for compact
    snapshots.  A full-engine snapshot is rejected with a clear
    :class:`CheckpointError` rather than misread, as is a snapshot whose
    packed layout no longer matches the spec's domain enumeration.
    """
    start = perf_counter()
    loaded = read_checkpoint(path, COMPACT_CHECKPOINT_MODE)
    options = resolve_options(workers, worker_timeout, fault_hook,
                              checkpoint, checkpoint_every, resumed=loaded)
    graph = restore_compact(loaded, spec, max_states)
    loaded.restore_stats(stats)
    return drive(local_level(CompactEngine(graph), stats, options),
                 list(loaded.frontier), start, loaded)


# -- invariant checking ------------------------------------------------------


def check_invariant_compact(
    graph: CompactGraph,
    invariant: Expr,
    name: Optional[str] = None,
    run_stats: Optional[ExploreStats] = None,
) -> CheckResult:
    """Does every reachable state satisfy the predicate?

    The compact twin of :func:`repro.checker.invariants.check_invariant`
    over a pre-explored graph: same scan order (node-id order, so the
    first violation -- and hence the counterexample trace -- is
    identical to the full engine's), same ``TypeError`` on a non-bool
    predicate, same ``CheckResult`` shape.  The invariant is one guard
    :class:`~repro.kernel.guard.Leaf`, memoized on its packed footprint,
    so states are only decoded once per distinct footprint.
    """
    invariant = to_expr(invariant)
    label = name or "invariant"
    if run_stats is not None and run_stats.states == 0:
        run_stats.record_graph(graph)
    stats = {"states": graph.state_count, "edges": graph.edge_count,
             "stutter": graph.stutter_count}
    leaf = Leaf(invariant, graph.codec)
    memo, mask = leaf.memo, leaf.pmask
    decode = graph.codec.decode
    with maybe_phase(run_stats, f"invariant:{label}"):
        for node, packed in enumerate(graph.packed):
            key = packed & mask
            value = memo.get(key)
            if value is None:
                state = decode(packed)
                value = memo[key] = leaf.read(Env(state))
                if value == ERR:  # re-read: an EvalError propagates
                    raise TypeError(f"invariant {invariant!r} returned "
                                    f"{invariant.eval_state(state)!r}")
            if not value:
                return CheckResult(
                    label,
                    ok=False,
                    counterexample=Counterexample(
                        graph.trace_to(node),
                        f"state violates invariant {invariant!r}"
                    ),
                    stats=stats,
                )
    return CheckResult(label, ok=True, stats=stats)
