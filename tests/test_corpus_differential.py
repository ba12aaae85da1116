"""Cross-engine differential tests over the distributed-protocol corpus.

The Lamport-mutex and single-decree-Paxos instances (see
:mod:`repro.systems.mutex` / :mod:`repro.systems.paxos`) are the
largest bundled workloads, and every engine must tell the identical
story on them.  For each corpus instance, at workers 1/2/4 (plus
``REPRO_TEST_WORKERS`` from the CI matrix):

* the parallel explorer reproduces the serial reference graph
  bit-for-bit (states under the same node numbering, adjacency, BFS
  parents, edge/stutter accounting);
* the compact (fingerprint-only) engine matches on everything
  observable, including the streaming graph digest;
* a run killed at a mid-BFS checkpoint and resumed -- full and compact
  engines both -- lands on the same digest as the uninterrupted run.

The checked properties are each protocol's *end-to-end* safety property
(mutual exclusion / agreement), once on an instance that satisfies it
and once on the broken variant that violates it, so both verdict paths
cross all engines.
"""

from __future__ import annotations

import os

import pytest

from repro.checker import (
    ExploreStats,
    check_invariant,
    check_invariant_compact,
    digest_of_graph,
    explore,
    explore_compact,
    explore_parallel,
    resume,
    resume_compact,
)
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos, v1a, v2a

from .test_compact_differential import assert_compact_matches_full

WORKER_COUNTS = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
if _extra and _extra not in WORKER_COUNTS:
    WORKER_COUNTS.append(_extra)


class CorpusCase:
    """One protocol instance plus its end-to-end safety property."""

    def __init__(self, case_id, make_system, property_of, expect_ok):
        self.id = case_id
        self.make_system = make_system
        self.property_of = property_of
        self.expect_ok = expect_ok

    def make_spec(self):
        return self.make_system().complete_spec()


CORPUS = [
    CorpusCase("mutex-2-2",
               lambda: LamportMutex(2, 2),
               lambda s: s.mutual_exclusion(), True),
    CorpusCase("mutex-2-2-broken",
               lambda: LamportMutex(2, 2, broken=True),
               lambda s: s.mutual_exclusion(), False),
    CorpusCase("paxos-2-2-2",
               lambda: Paxos(2, 2, 2),
               lambda s: s.agreement(), True),
    CorpusCase("paxos-2-2-2-broken",
               lambda: Paxos(2, 2, 2, broken=True),
               lambda s: s.agreement(), False),
    CorpusCase("paxos-2-2-2-lossy",
               lambda: Paxos(2, 2, 2, droppable=(v1a(1), v2a(0, 0))),
               lambda s: s.agreement(), True),
]

CORPUS_PARAMS = [pytest.param(case, id=case.id) for case in CORPUS]


def graph_signature(graph):
    return (list(graph.states), [list(adj) for adj in graph.succ],
            list(graph.parent), list(graph.init_nodes),
            graph.edge_count, graph.stutter_count)


class TestSerialVsParallel:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("case", CORPUS_PARAMS)
    def test_parallel_graph_identical(self, case, workers):
        spec = case.make_spec()
        reference = explore(spec)
        parallel = explore_parallel(spec, workers=workers)
        assert graph_signature(parallel) == graph_signature(reference)
        assert digest_of_graph(parallel) == digest_of_graph(reference)


class TestCompactEngine:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("case", CORPUS_PARAMS)
    def test_compact_graph_identical(self, case, workers):
        assert_compact_matches_full(case.make_spec(), workers)

    @pytest.mark.parametrize("case", CORPUS_PARAMS)
    def test_verdict_and_trace_identical(self, case):
        system = case.make_system()
        spec = system.complete_spec()
        prop = case.property_of(system)
        full = explore(spec)
        compact = explore_compact(spec)
        res_full = check_invariant(full, prop, name=case.id)
        res_compact = check_invariant_compact(compact, prop, name=case.id)
        assert res_full.ok is res_compact.ok is case.expect_ok
        assert res_full.summary() == res_compact.summary()
        if not case.expect_ok:
            # the compact engine regenerates the trace from fingerprints
            # and parent pointers; it must render byte-identically
            assert (res_compact.counterexample.render()
                    == res_full.counterexample.render())


class _StopAtLevel(Exception):
    pass


def _bomb_at(kill_after):
    def bomb(level, row):
        if level + 1 >= kill_after:
            raise _StopAtLevel()
    return bomb


class TestKillResume:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("case", CORPUS_PARAMS)
    def test_full_engine_kill_resume(self, tmp_path, case, workers):
        spec = case.make_spec()
        reference = explore(spec)
        path = tmp_path / f"{case.id}.ckpt"
        stats = ExploreStats()
        stats.add_level_listener(_bomb_at(3))
        with pytest.raises(_StopAtLevel):
            explore_parallel(spec, stats=stats, checkpoint=str(path),
                             checkpoint_every=1)
        resumed = resume(str(path), spec, workers=workers)
        assert graph_signature(resumed) == graph_signature(reference)
        assert digest_of_graph(resumed) == digest_of_graph(reference)

    @pytest.mark.parametrize("case", CORPUS_PARAMS)
    def test_compact_engine_kill_resume(self, tmp_path, case):
        spec = case.make_spec()
        reference = explore_compact(spec)
        path = tmp_path / f"{case.id}-compact.ckpt"
        stats = ExploreStats()
        stats.add_level_listener(_bomb_at(3))
        with pytest.raises(_StopAtLevel):
            explore_compact(spec, stats=stats, checkpoint=str(path),
                            checkpoint_every=1)
        resumed = resume_compact(str(path), spec)
        assert resumed.digest() == reference.digest()
        assert resumed.packed == reference.packed
        assert resumed.parent == reference.parent
        assert resumed.edge_count == reference.edge_count
