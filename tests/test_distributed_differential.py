"""Differential tests: distributed exploration is bit-for-bit serial.

:func:`repro.checker.distributed.explore_distributed` claims the
strongest possible portability property: the graph built by a
coordinator driving 1, 2, or 4 worker *nodes* (separate processes,
spoken to over HTTP) is **bit-for-bit** the graph of the serial
reference explorer -- same node numbering, BFS parents, edge and
stutter accounting, ``StateSpaceExplosion`` insertion point, and
streaming :class:`~repro.checker.digest.GraphDigest` -- and therefore
the same verdicts and byte-identical counterexample traces.  These
tests make the claim empirical for every bundled system (including the
deliberately broken mutex and Paxos variants): workers own visited-set
partitions keyed by fingerprint range, the coordinator keeps only the
packed columns, and a spec that does not pack is refused up front.

Golden distributed-run manifests freeze the digest and the per-level
partition counts for the mutex and Paxos corpus systems; because
pristine ranges never reshape (rebalancing only moves owners), those
manifests are identical with and without node failures.

One 4-worker pool is spawned per module and reset per run via
``POST /load``; worker counts k < 4 use a prefix of the pool.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import urllib.error
import urllib.request

import pytest

from repro.checker import (
    CheckpointError,
    ExploreStats,
    StateSpaceExplosion,
    digest_of_graph,
    explore,
    explore_compact,
    explore_distributed,
    explore_parallel,
    partition_ranges,
    resume_compact,
    resume_distributed,
    spawn_local_workers,
)
from repro.engine import ExplicitEngine
from repro.kernel import packed
from repro.kernel.expr import Const, Eq, Var
from repro.kernel.state import Universe
from repro.kernel.values import BIT, TupleDomain
from repro.spec import Spec
from repro.systems import bundled_module
from repro.tools.cli import main as cli_main

from .systems_under_test import CASE_PARAMS, CASES

WORKER_COUNTS = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
if _extra and _extra not in WORKER_COUNTS:
    WORKER_COUNTS.append(_extra)

_MAX_POOL = max(WORKER_COUNTS)


@pytest.fixture(scope="module")
def pool():
    """One worker fleet for the whole module; ``/load`` resets every
    run, so tests share processes without sharing state."""
    with spawn_local_workers(_MAX_POOL) as fleet:
        yield fleet


@pytest.fixture(scope="module")
def references():
    """Serial reference graphs, explored once per module."""
    cache = {}

    def get(case):
        if case.id not in cache:
            cache[case.id] = explore(case.make_spec())
        return cache[case.id]

    return get


# ---------------------------------------------------------------------------
# graph identity, every bundled system
# ---------------------------------------------------------------------------


def assert_distributed_compact_matches(spec, urls, reference):
    stats = ExploreStats()
    graph = explore_distributed(spec, urls, stats=stats)
    assert stats.engine == "compact"
    assert list(graph.states) == list(reference.states)
    assert graph.parent == [-1 if p is None else p
                            for p in reference.parent]
    assert graph.init_nodes == reference.init_nodes
    assert graph.state_count == reference.state_count
    assert graph.edge_count == reference.edge_count
    assert graph.stutter_count == reference.stutter_count
    assert graph.digest() == digest_of_graph(reference)
    return graph, stats


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("case", CASE_PARAMS)
def test_compact_graph_identical_to_serial(case, workers, pool, references):
    spec = case.make_spec()
    graph, _stats = assert_distributed_compact_matches(
        spec, pool.urls[:workers], references(case))
    # ... and to the single-machine compact engine, digest for digest
    assert graph.digest() == explore_compact(spec).digest()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("case", CASE_PARAMS)
def test_full_graph_identical_to_serial_and_parallel(case, workers, pool,
                                                     references):
    """Decoded, the distributed graph *is* the full-state graph the
    serial and process-pool explorers build: the same states in the same
    node order, parents, counts, and digest."""
    spec = case.make_spec()
    graph, _stats = assert_distributed_compact_matches(
        spec, pool.urls[:workers], references(case))
    parallel = explore_parallel(spec, workers=2)
    assert list(graph.states) == parallel.states
    assert graph.digest() == digest_of_graph(parallel)


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_verdicts_and_traces_identical(case, pool, references):
    """The checks built on top agree too: same summaries, byte-identical
    rendered counterexample traces.  Lasso checks need the full
    successor structure, so their rows pin the graph digest instead."""
    spec = case.make_spec()
    reference = references(case)
    ref_result = case.check(spec, reference)
    assert not ref_result.ok  # every row violates its property

    graph = explore_distributed(spec, pool.urls[:2])
    if case.kind != "finite":
        assert graph.digest() == digest_of_graph(reference)
        return
    result = case.check(spec, graph)
    assert result.summary() == ref_result.summary()
    assert result.counterexample.render() == \
        ref_result.counterexample.render()


# ---------------------------------------------------------------------------
# budget explosions: identical insertion point and boundary digest
# ---------------------------------------------------------------------------


def test_explosion_point_and_digest_identical(pool):
    spec = bundled_module("mutex:n=2,clock=3").spec("Spec")
    with pytest.raises(StateSpaceExplosion) as serial_exc:
        explore_compact(spec, max_states=300)
    with pytest.raises(StateSpaceExplosion) as dist_exc:
        explore_distributed(spec, pool.urls[:2], max_states=300)
    assert dist_exc.value.graph.state_count == \
        serial_exc.value.graph.state_count
    assert dist_exc.value.graph.digest() == serial_exc.value.graph.digest()


def test_acceptance_paxos_20k_budget_4_workers(pool):
    """The PR's acceptance criterion: a 4-worker distributed run of the
    droppable-messages Paxos instance under a 20k budget produces a
    ``GraphDigest`` byte-identical to the single-machine compact
    engine's, at the identical explosion point."""
    spec = bundled_module(
        "paxos:acceptors=3,ballots=3,droppable").spec("Spec")
    with pytest.raises(StateSpaceExplosion) as serial_exc:
        explore_compact(spec, max_states=20_000)
    with pytest.raises(StateSpaceExplosion) as dist_exc:
        explore_distributed(spec, pool.urls[:4], max_states=20_000)
    assert dist_exc.value.graph.state_count == 20_000
    assert dist_exc.value.graph.digest() == serial_exc.value.graph.digest()


# ---------------------------------------------------------------------------
# sharding invariants
# ---------------------------------------------------------------------------


def test_partition_ranges_tile_the_fingerprint_space():
    for workers in (1, 2, 3, 4, 7):
        ranges = partition_ranges(workers)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1 << 64
        for (_lo, hi), (lo2, _hi2) in zip(ranges, ranges[1:]):
            assert hi == lo2  # contiguous, no gaps, no overlaps
    with pytest.raises(ValueError):
        partition_ranges(0)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_level_partitions_sum_to_level_sizes(workers, pool, references):
    """The per-level partition counts are a decomposition of the BFS
    levels: each row sums to the number of states interned that level."""
    case = CASES[0]  # queue
    compact = explore_distributed(case.make_spec(), pool.urls[:workers])
    assert len(compact.partition_ranges) == workers
    assert sum(compact.level_partitions[0]) == len(compact.init_nodes)
    assert sum(sum(row) for row in compact.level_partitions) == \
        compact.state_count


# ---------------------------------------------------------------------------
# golden distributed-run manifests (mutex + paxos corpus systems)
# ---------------------------------------------------------------------------


def _distributed_manifest(graph, workers: int) -> str:
    return json.dumps({
        "workers": workers,
        "digest": graph.digest(),
        "states": graph.state_count,
        "edges": graph.edge_count,
        "level_partitions": graph.level_partitions,
    }, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name,ref", [
    ("mutex_distributed.json", "mutex:n=2,clock=3"),
    ("paxos_distributed.json", "paxos:acceptors=2,ballots=2"),
])
def test_golden_distributed_manifest(name, ref, pool, golden):
    """Digest and per-level partition counts frozen byte-for-byte at 4
    workers.  Rebalancing moves range *owners* but never reshapes the
    pristine ranges, so these manifests are fault-independent."""
    spec = bundled_module(ref).spec("Spec")
    graph = explore_distributed(spec, pool.urls[:4])
    golden.check(name, _distributed_manifest(graph, workers=4))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_coordinate_against_running_workers(pool, tmp_path, capsys):
    stats_json = tmp_path / "stats.json"
    code = cli_main(["coordinate", "@mutex:n=2,clock=3",
                     "--worker-at", pool.urls[0],
                     "--worker-at", pool.urls[1],
                     "--stats-json", str(stats_json)])
    out = capsys.readouterr().out
    assert code == 0
    reference = explore_compact(
        bundled_module("mutex:n=2,clock=3").spec("Spec"))
    assert f"digest: {reference.digest()}" in out
    assert "723 states" in out
    payload = json.loads(stats_json.read_text())
    assert payload["workers"] == 2
    assert payload["node_losses"] == 0


def test_cli_coordinate_requires_a_fleet(capsys):
    code = cli_main(["coordinate", "@mutex:n=2,clock=3"])
    assert code == 2
    assert "--spawn" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# one engine: what it cannot run is refused up front
# ---------------------------------------------------------------------------


def _unpackable_spec() -> Spec:
    """Bit strings up to length 20: 2M values, past the packed codec's
    per-variable bound, yet tiny to pickle (the domain is lazy)."""
    return Spec("Words", Eq(Var("w"), Const(())),
                Eq(Var("w", primed=True), Var("w")), ("w",),
                Universe({"w": TupleDomain(BIT, 20)}))


def _generation(url: str) -> int:
    with urllib.request.urlopen(url + "/healthz", timeout=10) as response:
        return json.load(response)["generation"]


def test_unpackable_spec_is_refused_before_any_load(pool):
    before = _generation(pool.urls[0])
    with pytest.raises(packed.CompactUnsupported) as caught:
        explore_distributed(_unpackable_spec(), pool.urls[:1])
    assert "exceeds" in str(caught.value)
    assert "repro check --workers N" in str(caught.value)
    assert _generation(pool.urls[0]) == before


def test_cli_coordinate_refuses_an_unpackable_spec(pool, monkeypatch,
                                                   capsys):
    reason = "domain of 'x' is empty; nothing to pack"
    monkeypatch.setattr(packed, "support_problem", lambda spec: reason)
    before = _generation(pool.urls[0])
    code = cli_main(["coordinate", "@mutex:n=2,clock=3",
                     "--worker-at", pool.urls[0]])
    out = capsys.readouterr().out
    assert code == 2
    assert reason in out and "repro check --workers N" in out
    assert _generation(pool.urls[0]) == before  # no /load was sent


def test_load_of_an_unpackable_spec_is_a_400(pool):
    body = json.dumps({
        "spec_pickle": base64.b64encode(
            pickle.dumps(_unpackable_spec())).decode("ascii"),
        "worker": 0, "ranges": [[0, 1 << 64]]}).encode("utf-8")
    request = urllib.request.Request(
        pool.urls[0] + "/load", data=body, method="POST",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request, timeout=30)
    assert caught.value.code == 400
    assert "does not pack" in json.load(caught.value)["error"]


def test_full_checkpoint_is_refused_on_a_cluster(pool, tmp_path, capsys):
    path = str(tmp_path / "full.ckpt")
    assert cli_main(["check", "@mutex:n=2,clock=3",
                     "--checkpoint", path]) == 0
    with pytest.raises(CheckpointError, match="full-state engine"):
        resume_distributed(path, pool.urls[:1],
                           bundled_module("mutex:n=2,clock=3").spec("Spec"))
    capsys.readouterr()
    code = cli_main(["coordinate", "@mutex:n=2,clock=3",
                     "--worker-at", pool.urls[0],
                     "--checkpoint", path, "--resume"])
    assert code == 2
    assert "full-state engine" in capsys.readouterr().out


class _Abort(Exception):
    pass


def _interrupted(run, path):
    """Run *run* with a checkpoint at *path*, aborting after level 3."""
    stats = ExploreStats()

    def abort_at_3(level, _row):
        if level == 3:
            raise _Abort()

    stats.add_level_listener(abort_at_3)
    with pytest.raises(_Abort):
        run(stats=stats, checkpoint=path)


def test_compact_snapshots_resume_on_a_cluster_and_on_one_machine(
        pool, tmp_path):
    spec = bundled_module("mutex:n=2,clock=3").spec("Spec")
    reference = explore_compact(spec).digest()
    single = str(tmp_path / "single.ckpt")
    _interrupted(lambda **kw: explore_compact(spec, **kw), single)
    assert resume_distributed(single, pool.urls[:2], spec,
                              checkpoint=None).digest() == reference
    fleet = str(tmp_path / "fleet.ckpt")
    _interrupted(lambda **kw: explore_distributed(spec, pool.urls[:2], **kw),
                 fleet)
    assert resume_compact(fleet, spec,
                          checkpoint=None).digest() == reference
    assert resume_distributed(fleet, pool.urls[:1], spec,
                              checkpoint=None).digest() == reference


def test_distributed_runs_refuse_temporal_properties():
    """Distributed runs build a compact graph, which has no successor
    structure for lasso search: refused like compact mode, not a
    traceback from inside the liveness checker."""
    engine = ExplicitEngine("distributed", nodes=["http://127.0.0.1:9"])
    spec = bundled_module("mutex:n=2,clock=3").spec("Spec")
    with pytest.raises(ValueError, match="distributed mode cannot check "
                                         "temporal properties"):
        engine.run(spec, properties=[("P", object())])
    with pytest.raises(ValueError, match="compact mode cannot check "
                                         "temporal properties"):
        ExplicitEngine("compact").run(spec, properties=[("P", object())])
