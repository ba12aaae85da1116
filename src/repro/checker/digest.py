"""Streaming, engine-independent digests of explored state graphs.

The service layer summarises a checked graph with a digest so that two
runs can be compared without retaining either graph.  The compact engine
forces a streaming formulation: it discards successor lists as it goes,
so the digest must absorb structure *during* exploration, and the
accumulator must survive checkpoint/resume (plain ints, JSON/pickle
friendly -- unlike a live ``hashlib`` object).

The digest folds two FNV-1a streams:

* the **node stream** absorbs ``(fingerprint, parent)`` in node-id
  order (parent ``-1`` for initial states), which pins state identity,
  discovery order, the BFS tree, and the initial-state set;
* the **edge stream** absorbs, per source in expansion order, the
  deduplicated non-stutter successor ids (the full engine's
  ``succ[src][1:]``), which pins the transition relation.

Both engines expand every node exactly once, sources in id order, so
absorbing at expansion time is equivalent to a post-hoc walk --
:func:`digest_of_graph` does exactly that walk over a full
:class:`~repro.checker.graph.StateGraph` and agrees bit-for-bit with a
compact exploration of the same spec.  The two streams are separate
accumulators, so the compact engine absorbs edges as it expands and
nodes in batches, in id order, only when the digest is read.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import Iterable, List, Sequence

from ..kernel.state import _FNV_OFFSET, _FNV_PRIME, _MASK64

__all__ = ["GraphDigest", "digest_of_graph"]


class GraphDigest:
    """Order-sensitive streaming digest of a state graph."""

    __slots__ = ("node_hash", "edge_hash", "nodes", "edges")

    def __init__(self, node_hash: int = _FNV_OFFSET,
                 edge_hash: int = _FNV_OFFSET,
                 nodes: int = 0, edges: int = 0):
        self.node_hash = node_hash
        self.edge_hash = edge_hash
        self.nodes = nodes
        self.edges = edges

    def absorb_nodes(self, fingerprints: Sequence[int],
                     parents: Sequence[int]) -> None:
        """Absorb interned nodes in id order, one ``(fingerprint,
        parent)`` pair each (``parent == -1`` for initial)."""
        h = self.node_hash
        for fingerprint, parent in zip(fingerprints, parents):
            h = ((h ^ (fingerprint & _MASK64)) * _FNV_PRIME) & _MASK64
            h = ((h ^ (parent & _MASK64)) * _FNV_PRIME) & _MASK64
        self.node_hash = h
        self.nodes += len(fingerprints)

    def absorb_edges(self, src: int, dsts: Sequence[int]) -> None:
        """Absorb a source's deduplicated non-stutter successor ids."""
        h = self.edge_hash
        h = ((h ^ src) * _FNV_PRIME) & _MASK64
        h = ((h ^ len(dsts)) * _FNV_PRIME) & _MASK64
        for dst in dsts:
            h = ((h ^ dst) * _FNV_PRIME) & _MASK64
        self.edge_hash = h
        self.edges += len(dsts)

    def state(self) -> List[int]:
        """Serializable accumulator state (for checkpoints)."""
        return [self.node_hash, self.edge_hash, self.nodes, self.edges]

    @classmethod
    def restore(cls, state: Iterable[int]) -> "GraphDigest":
        node_hash, edge_hash, nodes, edges = (int(x) for x in state)
        return cls(node_hash, edge_hash, nodes, edges)

    def hexdigest(self) -> str:
        packed = struct.pack("<QQQQ", self.node_hash, self.edge_hash,
                             self.nodes & _MASK64, self.edges & _MASK64)
        return sha256(b"repro-graph-digest-v1" + packed).hexdigest()


def digest_of_graph(graph) -> str:
    """A strong identity for an explored graph of either type: two runs
    with equal digests produced bit-for-bit the same graph (hence the
    same traces).

    A :class:`~repro.checker.compact.CompactGraph` streamed its digest
    during exploration and simply reports it.  A full
    :class:`StateGraph` is walked post hoc and yields the same value a
    compact exploration of the same spec streams out: nodes in id order
    with their BFS parents, then each source's non-stutter successors
    (``succ[src][1:]`` -- the leading entry is the implicit stutter
    self-loop).
    """
    own = getattr(graph, "digest", None)
    if own is not None:
        return own()
    digest = GraphDigest()
    digest.absorb_nodes([state.fingerprint() for state in graph.states],
                        [-1 if p is None else p for p in graph.parent])
    for node in range(graph.state_count):
        digest.absorb_edges(node, graph.succ[node][1:])
    return digest.hexdigest()
