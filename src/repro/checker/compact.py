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
``ExploreStats.summary()`` / ``to_json()``.

Temporal (lasso) properties need the full successor structure, which
the compact engine deliberately does not retain; callers gate those to
the full engine (the CLI refuses ``--compact --property``, the service
auto-disables compact with a note).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel.behavior import FiniteBehavior
from ..kernel.expr import Expr, to_expr
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
from .graph import StateSpaceExplosion
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
    CLI's ``--show`` and ad-hoc callers expect, without retaining any
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


class CompactGraph:
    """A reachable state graph retaining only packed ints + BFS parents.

    Mirrors the :class:`~repro.checker.graph.StateGraph` surface the
    checking layers read (``state_count`` / ``edge_count`` /
    ``stutter_count`` / ``init_nodes`` / ``path_to_root`` / ``states``)
    but drops successor lists and full states.  The transition structure
    is folded into a streaming :class:`GraphDigest` at expansion time
    instead, so two explorations can still be compared bit-for-bit.
    """

    def __init__(self, spec: Spec, plan: Optional[PackedPlan] = None,
                 max_states: Optional[int] = None):
        self.spec = spec
        self.plan = plan if plan is not None else PackedPlan(spec)
        self.codec = self.plan.codec
        self.name = spec.name
        self.max_states = max_states
        self.visited: Dict[int, int] = {}   # packed -> node id
        self.packed: List[int] = []         # node id -> packed
        self.parent: List[int] = []         # node id -> parent (-1: initial)
        self.init_nodes: List[int] = []
        self._edge_count = 0
        self._fingerprints: set = set()
        self._collisions = 0
        self._digest = GraphDigest()

    # -- interning -----------------------------------------------------------

    def intern(self, packed: int, parent: int) -> Tuple[int, bool]:
        """Intern a packed state; returns ``(node_id, is_new)``.

        Enforces the ``max_states`` budget at insertion time exactly
        like :meth:`StateGraph.add_state`, and counts 64-bit fingerprint
        collisions (packed keys are exact, so a collision here is
        *observed and survived*, never a silent merge).
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
        fingerprint = self.codec.fingerprint(packed)
        self._digest.absorb_node(fingerprint, parent)
        self.visited[packed] = node
        if fingerprint in self._fingerprints:
            self._collisions += 1
        else:
            self._fingerprints.add(fingerprint)
        return node, True

    def merge_successors(self, src: int,
                         successors: Iterable[int]) -> List[int]:
        """Merge one source's successor emission; returns new node ids.

        Edge accounting matches the full engine: stutter self-loops and
        repeated targets are not counted, and the deduplicated target
        list (the full engine's ``succ[src][1:]``) feeds the digest's
        edge stream.
        """
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
        self._edge_count += len(dsts)
        self._digest.absorb_edges(src, dsts)
        return new_nodes

    # -- StateGraph-compatible surface ---------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.packed)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def stutter_count(self) -> int:
        return len(self.packed)

    @property
    def total_edge_count(self) -> int:
        return self._edge_count + len(self.packed)

    @property
    def states(self) -> _PackedStatesView:
        return _PackedStatesView(self)

    @property
    def fingerprint_collisions(self) -> int:
        """Distinct states observed sharing a 64-bit fingerprint."""
        return self._collisions

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.packed):
            raise ValueError(
                f"node {node!r} is not in this graph (valid ids: "
                f"0..{len(self.packed) - 1}); states beyond the "
                f"max_states budget are never interned")

    def state_at(self, node: int):
        """Decode node *node* back into a full ``State``."""
        self._check_node(node)
        return self.codec.decode(self.packed[node])

    def path_to_root(self, node: int) -> List[int]:
        """The BFS-tree path from an initial node to *node* (inclusive)."""
        self._check_node(node)
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

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
        return self._digest.hexdigest()

    def digest_state(self) -> List[int]:
        return self._digest.state()


# -- exploration -------------------------------------------------------------


class CompactEngine:
    """The compact engine seam of :mod:`repro.checker.bfs`: packed ints
    in, packed ints out, interned on the exact packed value."""

    tag = "compact"
    reduction = None
    size = staticmethod(len)

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

    def finish(self, stats: Optional[ExploreStats]) -> None:
        if stats is not None:
            stats.engine = "compact"
            stats.fingerprint_collisions = self.graph.fingerprint_collisions


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
                  _sources: range) -> Dict[str, object]:
    """The compact engine's share of one record: packed ints and parents
    of *nodes*, plus the running edge count and digest accumulator --
    edges are not retained, so the digest stream *must* survive the
    round trip rather than be recomputed."""
    return {
        "packed": graph.packed[nodes.start:nodes.stop],
        "parent": graph.parent[nodes.start:nodes.stop],
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
    graph._edge_count = loaded.edge_count
    graph._digest = GraphDigest.restore(loaded.digest)
    fingerprint = plan.codec.fingerprint
    limit = 1 << plan.codec.bits
    fingerprints: set = set()
    collisions = 0
    for p in packed_rows:
        try:
            fp = fingerprint(p) if p < limit else None
        except IndexError:  # a field code beyond its domain
            fp = None
        if fp is None:
            raise CheckpointError(
                f"{path}: packed state {p} lies outside the codec's bit "
                f"layout; the checkpoint is corrupt")
        if fp in fingerprints:
            collisions += 1
        else:
            fingerprints.add(fp)
    graph._fingerprints = fingerprints
    graph._collisions = collisions
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
    predicate, same ``CheckResult`` shape.  Evaluation is memoized on
    the packed footprint of the invariant's free variables, so states
    are only decoded once per distinct footprint.
    """
    invariant = to_expr(invariant)
    label = name or "invariant"
    if run_stats is not None and run_stats.states == 0:
        run_stats.record_graph(graph)
    stats = {"states": graph.state_count, "edges": graph.edge_count,
             "stutter": graph.stutter_count}
    mask = graph.codec.mask_of(invariant.free_vars())
    decode = graph.codec.decode
    memo: Dict[int, bool] = {}
    with maybe_phase(run_stats, f"invariant:{label}"):
        for node, packed in enumerate(graph.packed):
            key = packed & mask
            value = memo.get(key)
            if value is None:
                value = invariant.eval_state(decode(packed))
                if not isinstance(value, bool):
                    raise TypeError(
                        f"invariant {invariant!r} returned {value!r}")
                memo[key] = value
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
