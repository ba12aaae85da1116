"""Reachable state graphs and SCC machinery for the model checker.

A :class:`StateGraph` is the explicit reachable-state graph of a canonical
specification: nodes are states, edges are ``[N]_v`` steps.  Stuttering
self-loops are materialised on every node, because ``□[N]_v`` always allows
a behavior to stay put -- liveness analysis must consider behaviors that
end by stuttering forever (that is precisely what dooms the liveness
version of the paper's Figure 1 example).

:class:`GraphQueries` offers Tarjan SCC decomposition restricted to
arbitrary node/edge predicates, and BFS path finding -- the two
primitives the liveness checker's Streett-style fair-cycle search needs
-- over nothing but ``succ``, ``has_edge`` and ``parent``.  Both graph
classes answer them with this one implementation: :class:`StateGraph`
(dict-interned states, per-node successor lists and sets) and
:class:`~repro.checker.compact.CompactGraph` (packed rows, CSR edges).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..kernel.state import State, Universe

NodeFilter = Callable[[int], bool]
EdgeFilter = Callable[[int, int], bool]


class StateSpaceExplosion(Exception):
    """Exploration exceeded the configured state budget.

    When the budget is hit by a live exploration (rather than a restore
    precondition), the partially built graph is attached as ``.graph``:
    every engine raises at the identical insertion point, so two
    budget-capped runs can still be compared state-for-state and
    digest-for-digest at the explosion boundary.
    """

    graph: Optional[object] = None


def _accept_all_nodes(_node: int) -> bool:
    return True


def _accept_all_edges(_src: int, _dst: int) -> bool:
    return True


class GraphQueries:
    """The read-only queries of a reachable state graph, shared by both
    graph classes.

    A subclass provides ``succ[i]`` (node ``i``'s successors: the
    stutter self-loop first, then the distinct targets in insertion
    order), ``has_edge(src, dst)``, ``parent[i]`` (the BFS tree; ``None``
    or ``-1`` marks an initial node) and ``state_count``.
    """

    succ: Sequence[Sequence[int]]
    parent: Sequence[Optional[int]]

    @property
    def state_count(self) -> int:  # pragma: no cover - subclasses define
        raise NotImplementedError

    def has_edge(self, src: int, dst: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def _check_node(self, node: int) -> None:
        """Reject node ids that were never interned.

        A caller holding an id beyond the graph (typically a state that
        was dropped when the ``max_states`` budget fired) must get a
        defined error here -- negative ids would otherwise silently
        index from the end and produce a *wrong* path."""
        if not 0 <= node < len(self.parent):
            raise ValueError(
                f"node {node!r} is not in this graph (valid ids: "
                f"0..{len(self.parent) - 1}); states beyond the "
                f"max_states budget are never interned")

    def path_to_root(self, node: int) -> List[int]:
        """The BFS-tree path from an initial node to *node* (inclusive)."""
        self._check_node(node)
        parent = self.parent
        path = [node]
        while True:
            up = parent[path[-1]]
            if up is None or up < 0:
                break
            path.append(up)
        path.reverse()
        return path

    def bfs_path(
        self,
        sources: Iterable[int],
        is_target: Callable[[int], bool],
        node_ok: NodeFilter = _accept_all_nodes,
        edge_ok: EdgeFilter = _accept_all_edges,
    ) -> Optional[List[int]]:
        """Shortest path from any source to any target within the filtered
        subgraph; sources must satisfy ``node_ok`` themselves."""
        sources = list(sources)
        for source in sources:
            self._check_node(source)
        frontier = [s for s in sources if node_ok(s)]
        prev: Dict[int, Optional[int]] = {s: None for s in frontier}
        for start in frontier:
            if is_target(start):
                return [start]
        succ = self.succ
        while frontier:
            next_frontier: List[int] = []
            for src in frontier:
                for dst in succ[src]:
                    if dst in prev or not node_ok(dst) or not edge_ok(src, dst):
                        continue
                    prev[dst] = src
                    if is_target(dst):
                        path = [dst]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])  # type: ignore[arg-type]
                        path.reverse()
                        return path
                    next_frontier.append(dst)
            frontier = next_frontier
        return None

    # -- SCC decomposition ----------------------------------------------------------

    def sccs(
        self,
        nodes: Optional[Iterable[int]] = None,
        node_ok: NodeFilter = _accept_all_nodes,
        edge_ok: EdgeFilter = _accept_all_edges,
        include_trivial: bool = False,
    ) -> List[List[int]]:
        """Tarjan SCCs of the filtered subgraph (iterative, no recursion).

        By default only *nontrivial* SCCs are returned: components with an
        internal edge.  Because every node carries a stutter self-loop,
        every singleton is nontrivial unless ``edge_ok`` rejects its
        self-loop.
        """
        if nodes is None:
            candidates = [n for n in range(self.state_count) if node_ok(n)]
        else:
            candidates = [n for n in nodes if node_ok(n)]
        allowed: Set[int] = set(candidates)
        succ = self.succ

        index_of: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        result: List[List[int]] = []
        counter = [0]

        def neighbors(v: int) -> List[int]:
            return [w for w in succ[v]
                    if w in allowed and edge_ok(v, w)]

        for root in candidates:
            if root in index_of:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                v, child_idx = work.pop()
                if child_idx == 0:
                    index_of[v] = counter[0]
                    lowlink[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack.add(v)
                recursed = False
                nbrs = neighbors(v)
                for i in range(child_idx, len(nbrs)):
                    w = nbrs[i]
                    if w not in index_of:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recursed = True
                        break
                    if w in on_stack:
                        lowlink[v] = min(lowlink[v], index_of[w])
                if recursed:
                    continue
                if lowlink[v] == index_of[v]:
                    component: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    has_edge = any(
                        dst in component and edge_ok(src, dst)
                        for src in component
                        for dst in succ[src]
                    ) if len(component) == 1 else True
                    if include_trivial or len(component) > 1 or has_edge:
                        result.append(component)
                if work:
                    pv = work[-1][0]
                    lowlink[pv] = min(lowlink[pv], lowlink[v])
        return result

    def covering_cycle(
        self,
        component: Sequence[int],
        edge_ok: EdgeFilter = _accept_all_edges,
        required_edges: Iterable[Tuple[int, int]] = (),
    ) -> List[int]:
        """A closed walk inside *component* visiting every node of the
        component and every required edge.

        The component must be strongly connected under ``edge_ok``.  The
        walk is returned as a node list whose last node has an edge back to
        the first (possibly the stutter self-loop).

        Every required edge must be an actual graph edge within the
        component that ``edge_ok`` allows; a bogus requirement raises
        ``ValueError`` instead of silently producing a non-walk.
        """
        comp_set = set(component)
        required_edges = tuple(required_edges)
        for src, dst in required_edges:
            if src not in comp_set or dst not in comp_set:
                raise ValueError(
                    f"required edge ({src}, {dst}) leaves the component"
                )
            if not self.has_edge(src, dst) or not edge_ok(src, dst):
                raise ValueError(
                    f"required edge ({src}, {dst}) is not an edge of the "
                    f"graph allowed by the edge filter"
                )

        def inside(n: int) -> bool:
            return n in comp_set

        start = component[0]
        walk = [start]

        def extend_to(target: int) -> None:
            if walk[-1] == target:
                return
            path = self.bfs_path([walk[-1]], lambda n: n == target,
                                 node_ok=inside, edge_ok=edge_ok)
            if path is None:
                raise ValueError(
                    "component is not strongly connected under the edge filter"
                )
            walk.extend(path[1:])

        for node in component[1:]:
            extend_to(node)
        for src, dst in required_edges:
            extend_to(src)
            walk.append(dst)
        extend_to(start)
        # the walk is start .. start; drop the final repetition: the cycle
        # closes via the edge from walk[-1] (== some node with edge to start)
        if len(walk) > 1 and walk[-1] == start:
            walk.pop()
        return walk


class StateGraph(GraphQueries):
    """Explicit state graph with indexed nodes.

    ``states[i]`` is node ``i``'s :class:`~repro.kernel.state.State`,
    interned through a ``state -> node`` dict.  ``succ[i]`` lists
    successor indices of node ``i`` (including ``i`` itself: the stutter
    edge).  A parallel per-node successor *set* makes :meth:`add_edge`
    and :meth:`has_edge` O(1) regardless of out-degree.  ``parent``
    records the BFS tree from the initial states (``None`` for an
    initial node) for counterexample reconstruction.

    ``max_states`` is a hard budget on *interned* states, enforced at
    insertion time: the graph holds at most ``max_states`` states, and the
    insertion that would exceed the budget raises
    :class:`StateSpaceExplosion` immediately (no overshoot within a BFS
    level).
    """

    def __init__(self, universe: Universe, max_states: Optional[int] = None,
                 name: Optional[str] = None):
        self.universe = universe
        self.max_states = max_states
        self.name = name
        self.states: List[State] = []
        self._index: Dict[State, int] = {}
        self.lookup = self._index.get
        self.succ: List[List[int]] = []
        self._succ_sets: List[Set[int]] = []
        self.init_nodes: List[int] = []
        self.parent: List[Optional[int]] = []
        self._edge_count = 0  # real N-edges; stutter loops counted apart

    # -- construction ------------------------------------------------------

    @classmethod
    def restore(
        cls,
        universe: Universe,
        states: Sequence[State],
        succ_rest: Sequence[Sequence[int]],
        parent: Sequence[Optional[int]],
        init_nodes: Sequence[int],
        max_states: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "StateGraph":
        """Rebuild a graph from its serialized pieces (the checkpoint layer).

        ``succ_rest[i]`` lists node ``i``'s non-stutter successors in their
        original insertion order; the stutter self-loop is re-materialised
        first, exactly as :meth:`add_state` would have.  The result is
        bit-for-bit the graph that was serialized: same node numbering,
        same adjacency-list order, same parents -- so a resumed BFS
        continues exactly like the uninterrupted run.
        """
        if max_states is not None and len(states) > max_states:
            raise StateSpaceExplosion(
                f"cannot restore {len(states)} states under a budget of "
                f"{max_states} states"
            )
        graph = cls(universe, max_states=max_states, name=name)
        for node, state in enumerate(states):
            rest = list(succ_rest[node])
            graph._index[state] = node
            graph.states.append(state)
            graph.succ.append([node] + rest)
            graph._succ_sets.append({node, *rest})
            graph.parent.append(parent[node])
            graph._edge_count += len(rest)
        graph.init_nodes = list(init_nodes)
        return graph

    def add_state(self, state: State, parent: Optional[int] = None) -> Tuple[int, bool]:
        """Intern a state; returns (index, was_new).

        Raises :class:`StateSpaceExplosion` if interning a *new* state
        would exceed ``max_states``.
        """
        node = self._index.get(state)
        if node is not None:
            return node, False
        node = len(self.states)
        if self.max_states is not None and node >= self.max_states:
            label = f"exploring {self.name!r} " if self.name else "exploration "
            exc = StateSpaceExplosion(
                f"{label}exceeded the state budget of {self.max_states} states"
            )
            exc.graph = self
            raise exc
        self._index[state] = node
        self.states.append(state)
        self.succ.append([node])  # stutter self-loop
        self._succ_sets.append({node})
        self.parent.append(parent)
        return node, True

    def add_edge(self, src: int, dst: int) -> None:
        if dst == src:
            return  # the stutter loop is materialised at add_state time
        outs = self._succ_sets[src]
        if dst not in outs:
            outs.add(dst)
            self.succ[src].append(dst)
            self._edge_count += 1

    def has_edge(self, src: int, dst: int) -> bool:
        """O(1) membership test, stutter self-loops included."""
        return dst in self._succ_sets[src]

    # -- metrics -------------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        """Real ``N``-edges only (the materialised stutter self-loops are
        reported separately by :attr:`stutter_count`)."""
        return self._edge_count

    @property
    def stutter_count(self) -> int:
        """The materialised stutter self-loops: one per node."""
        return len(self.states)

    @property
    def total_edge_count(self) -> int:
        """All materialised edges, stutter self-loops included."""
        return self._edge_count + len(self.states)

    @property
    def fingerprint_collisions(self) -> int:
        """Distinct interned states sharing a 64-bit fingerprint.

        Interning is keyed on full states, so a collision can never
        merge two states here -- but staying silent about one would hide
        exactly the event that *would* corrupt a fingerprint-keyed
        consumer (the service cache, the graph digest).  Computed on
        demand; fingerprints are cached on the states themselves."""
        return len(self.states) - len(
            {state.fingerprint() for state in self.states})
