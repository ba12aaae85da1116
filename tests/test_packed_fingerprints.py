"""Batched fingerprints: one lane-parallel fold, bit for bit
``State.fingerprint()``, and a graph that settles it only when read.

``PackedCodec.fingerprints`` folds a run of packed rows at once, each
row's 64-bit FNV-1a hash in its own 128-bit lane of one big int.  The
oracle here is never the codec's own fold: it is ``State.fingerprint()``
of the decoded state, on the benchmark's protocol corpus, the
certificate products, and a universe built to stress the word lists
(strings of different lengths, tuples, frozensets, a one-value domain),
at every chunk boundary.

``CompactGraph`` interns without fingerprinting and folds the nodes
interned since the last read when the digest, a checkpoint record or
the collision count is read.  Reading them at every level, across a
checkpoint and resume, or with two workers must give the digest and
collision count of an uninterrupted run.
"""

from __future__ import annotations

import pytest

import repro.checker.compact as compact_module
import repro.kernel.packed as packed_module
from repro.checker import (
    ExploreStats,
    StateSpaceExplosion,
    explore_compact,
    resume_compact,
)
from repro.checker.compact import CompactGraph
from repro.checker.digest import GraphDigest
from repro.kernel.packed import FP_CHUNK, PackedCodec
from repro.kernel.state import Universe
from repro.kernel.values import FiniteDomain, TupleDomain, interval

from .test_plan_tree import CERTIFY, CORPUS, safety_product

#: the two corpus specs the benchmark explores to a 20k-state budget
SAMPLED = {"paxos-3-3-1", "mutex-3-4"}


def rows_of(spec, budget=None):
    """Packed rows of *spec* in node order (a BFS prefix under a
    budget) and the codec that packed them."""
    try:
        graph = explore_compact(spec, max_states=budget or 200_000)
    except StateSpaceExplosion as exc:
        graph = exc.graph
    return graph.packed, graph.codec


def oracle(codec, rows):
    return [codec.decode(p).fingerprint() for p in rows]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_explore_corpus_matches_state_fingerprint(name):
    spec = CORPUS[name]().complete_spec()
    if name in SAMPLED:
        rows, codec = rows_of(spec, budget=6_000)
        rows = rows[::2]
    else:
        rows, codec = rows_of(spec)
    assert len(rows) > 500
    assert codec.fingerprints(rows) == oracle(codec, rows)


@pytest.mark.parametrize("name", sorted(CERTIFY))
def test_certify_products_match_state_fingerprint(name):
    rows, codec = rows_of(safety_product(CERTIFY[name]()))
    assert codec.fingerprints(rows) == oracle(codec, rows)


def mixed_universe():
    return Universe({
        # UTF-8 byte lists of different lengths, the empty string first
        "label": FiniteDomain(["", "a", "bcd", "héllo", "a"]),
        # sequences of length 0..2: word lists of three lengths
        "queue": TupleDomain(interval(0, 1), 2),
        "set": FiniteDomain([frozenset(), frozenset({1}),
                             frozenset({1, 2}), frozenset({"x", (1,)})]),
        "only": FiniteDomain(["the one value"]),
        "mix": FiniteDomain([False, True, -1, 1 << 70, "t", (1, "t")]),
    })


def test_mixed_universe_matches_state_fingerprint():
    universe = mixed_universe()
    codec = PackedCodec(universe)
    states = list(universe.states())
    rows = [codec.encode(state) for state in states]
    assert len(rows) == 4 * 7 * 4 * 1 * 6
    assert codec.fingerprints(rows) == [s.fingerprint() for s in states]
    # and in any row order: lanes are independent
    assert codec.fingerprints(rows[::-1]) == oracle(codec, rows[::-1])
    assert [codec.fingerprint(p) for p in rows[:20]] == oracle(codec,
                                                                rows[:20])


@pytest.fixture(scope="module")
def long_run():
    """B + 1 rows of Paxos(3,2,1) with their oracle fingerprints."""
    rows, codec = rows_of(CORPUS["paxos-3-2-1"]().complete_spec())
    rows = rows[:FP_CHUNK + 1]
    assert len(rows) == FP_CHUNK + 1
    return codec, rows, oracle(codec, rows)


@pytest.mark.parametrize("count", [0, 1, FP_CHUNK - 1, FP_CHUNK,
                                   FP_CHUNK + 1])
def test_chunk_boundaries(long_run, count):
    codec, rows, expected = long_run
    assert codec.fingerprints(rows[:count]) == expected[:count]


def test_small_chunks_agree(long_run, monkeypatch):
    codec, rows, expected = long_run
    monkeypatch.setattr(packed_module, "FP_CHUNK", 7)
    for count in (6, 7, 8, 15, 300):
        assert codec.fingerprints(rows[:count]) == expected[:count]


def test_a_code_beyond_its_domain_raises():
    universe = Universe({"a": interval(0, 2), "b": interval(0, 1)})
    codec = PackedCodec(universe)
    good = codec.encode(next(iter(universe.states())))
    bad = good | (3 << codec.shift["a"])   # a 3-value field holding 3
    with pytest.raises(IndexError):
        codec.fingerprints([good, bad, good])
    with pytest.raises(IndexError):
        codec.fingerprint(bad)


# ---------------------------------------------------------------------------
# lazy settling
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def product():
    return safety_product(CERTIFY["paxos-2-2-2"]())


@pytest.fixture(scope="module")
def reference(product):
    graph = explore_compact(product)
    return graph.digest(), graph.fingerprint_collisions


def eager_digest_state(graph, nodes, sources):
    """The digest accumulator of the first *nodes* nodes and *sources*
    expanded sources, folded from decoded states' fingerprints."""
    digest = GraphDigest()
    digest.absorb_nodes([graph.state_at(n).fingerprint()
                         for n in range(nodes)], graph.parent[:nodes])
    for src in range(sources):
        digest.absorb_edges(src, graph.succ[src][1:])
    return digest.state()


def test_reading_the_digest_every_level(product, reference, monkeypatch):
    graphs = []

    class Recording(CompactGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(compact_module, "CompactGraph", Recording)
    seen = []

    def read(level, row):
        graph = graphs[0]
        seen.append((graph.digest_state(), graph.state_count,
                     len(graph._offsets) - 1))
        graph.digest()

    stats = ExploreStats()
    stats.add_level_listener(read)
    graph = explore_compact(product, stats=stats)
    assert len(seen) > 3
    assert (graph.digest(), graph.fingerprint_collisions) == reference
    for state, nodes, sources in seen:
        assert state == eager_digest_state(graph, nodes, sources)


def test_checkpoint_every_three_then_resume(product, reference, tmp_path):
    class _Stop(Exception):
        pass

    def stop(level, row):
        if level >= 4:
            raise _Stop()

    stats = ExploreStats()
    stats.add_level_listener(stop)
    path = str(tmp_path / "p.ckpt")
    with pytest.raises(_Stop):
        explore_compact(product, stats=stats, checkpoint=path,
                        checkpoint_every=3)
    graph = resume_compact(path, product, checkpoint=None)
    assert (graph.digest(), graph.fingerprint_collisions) == reference


def test_two_workers(product, reference):
    graph = explore_compact(product, workers=2)
    assert (graph.digest(), graph.fingerprint_collisions) == reference


def test_a_budget_cut_run_folds_nothing(product, monkeypatch):
    calls = []
    real = PackedCodec.fingerprints

    def counting(self, rows):
        calls.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(PackedCodec, "fingerprints", counting)
    with pytest.raises(StateSpaceExplosion) as info:
        explore_compact(product, max_states=200)
    assert calls == []
    # reading it afterwards folds every interned node once
    assert info.value.graph.fingerprint_collisions == 0
    assert calls == [200]
