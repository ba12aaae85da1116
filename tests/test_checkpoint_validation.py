"""Checkpoints are outside input: the one level-log reader fails closed.

Both engines' logs go through
:func:`repro.checker.checkpoint.read_checkpoint`.  This file pins

* the bytes' *shape*: the header and record key sets of full and
  compact logs (``CHECKPOINT_VERSION`` is 2: the append-only level log)
  and of the stats snapshot a record carries;
* one table of hostile mutations per engine, applied to header or
  record fields and re-framed with valid checksums: every one is a
  :class:`CheckpointError` from the library and exit 2 from the CLI,
  never a ``TypeError`` / ``IndexError`` / ``ValueError`` traceback and
  never a run quietly continued from garbage;
* logs written before the worker fleet was deleted still resume: their
  records' ``"distributed"`` section and the stats' fleet counters are
  ignored;
* logs written while the spill store existed: a full header's
  ``"store"`` field (mem or spill) is ignored and the run resumes in
  RAM, while a compact log from before the compact engine kept its
  edges (records without ``"succ"``) fails closed with one line naming
  the cause -- from the library, the CLI and a service check process.
"""

from __future__ import annotations

import json

import pytest

from repro.checker import (
    CheckpointError,
    ExploreStats,
    StateSpaceExplosion,
    digest_of_graph,
    explore,
    explore_compact,
    resume,
    resume_compact,
)
from repro.checker.checkpoint import CHECKPOINT_VERSION
from repro.kernel.packed import PackedCodec
from repro.systems import bundled_module
from repro.tools.cli import main as cli_main

from .test_checkpoint_log import read_log, write_log

MODULE = "mutex:n=2,clock=2"

HEADER = ["format", "version", "mode", "spec_name", "max_states",
          "workers", "checkpoint_every"]
FULL_HEADER = HEADER + ["variables"]
COMPACT_HEADER = HEADER + ["codec_signature"]
RECORD = {"nodes_from", "parent", "frontier", "depth", "levels",
          "elapsed_seconds", "stats"}
FULL_RECORD = RECORD | {"states", "fingerprints", "succ"}
COMPACT_RECORD = RECORD | {"packed", "succ", "edge_count", "digest"}
STATS = {"states", "edges", "stutter_edges", "init_states", "depth",
         "states_per_sec", "explore_seconds", "phases", "workers",
         "worker_stats", "coordinator_idle_seconds", "worker_retries",
         "levels", "levels_seen", "peak_rss_kb", "engine", "fingerprint_collisions", "collision_probability_bound"}
# the stats keys a record carried while the worker fleet existed; logs
# written then must still resume
FLEET_STATS = {"node_losses": 1, "rebalances": 1, "reshipped_sources": 7,
               "node_labels": {"0": "http://127.0.0.1:9"}}


def mutex_spec():
    return bundled_module(MODULE).spec("Spec")


# ---------------------------------------------------------------------------
# the bytes' shape
# ---------------------------------------------------------------------------


def test_snapshot_key_sets_are_pinned(tmp_path):
    assert CHECKPOINT_VERSION == 2
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(mutex_spec(), checkpoint=full)
    explore_compact(mutex_spec(), checkpoint=compact, stats=ExploreStats())
    for path, header_keys, record_keys in (
            (full, FULL_HEADER, FULL_RECORD),
            (compact, COMPACT_HEADER, COMPACT_RECORD)):
        header, *records = read_log(path)
        # the header's keys come in one order, the shared ones first
        assert list(header) == header_keys, path
        assert header["version"] == 2
        assert header["mode"] == (None if path == full else "compact")
        assert len(records) > 1, path
        for record in records:
            assert set(record) == record_keys, path
            if record["stats"] is not None:
                assert set(record["stats"]) == STATS, path


# ---------------------------------------------------------------------------
# hostile mutations, both engines, one table
# ---------------------------------------------------------------------------

BIG = 10 ** 6


def _header(key, value):
    def mutate(log):
        log[0][key] = value
    return mutate


def _record(index, edit):
    def mutate(log):
        edit(log[1:][index])
    return mutate


def _count(record):
    return record["nodes_from"] + len(record["parent"])


def _beyond_domain(packed):
    """*packed* with the 3-value field ``req1`` holding code 3: inside
    the bit layout, beyond the domain."""
    codec = PackedCodec(mutex_spec().universe)
    assert len(codec.values["req1"]) == 3
    return packed | (3 << codec.shift["req1"])


MUTATIONS = [
    # (engine, id, mutation); record 0 is the seed level's, -1 the last
    ("full", "frontier-not-a-list",
     _record(-1, lambda r: r.update(frontier=5))),
    ("full", "frontier-id-out-of-range",
     _record(-1, lambda r: r.update(frontier=[BIG, BIG]))),
    ("full", "short-fingerprints",
     _record(0, lambda r: r["fingerprints"].pop())),
    ("full", "short-parent", _record(0, lambda r: r["parent"].pop())),
    ("full", "graph-not-an-object",
     lambda log: log.__setitem__(-1, [])),
    ("full", "workers-not-an-int", _header("workers", "two")),
    ("full", "dangling-succ-target",
     _record(0, lambda r: r["succ"][0].append(BIG))),
    ("full", "checkpoint-every-zero", _header("checkpoint_every", 0)),
    ("full", "levels-not-an-int", _record(-1, lambda r: r.update(levels="x"))),
    # records are deltas: one dropped from the middle leaves a gap
    ("full", "missing-middle-record", lambda log: log.pop(3)),
    ("compact", "garbage-digest",
     _record(-1, lambda r: r.update(digest=["x", 1, 2, 3]))),
    ("compact", "workers-not-an-int", _header("workers", "two")),
    ("compact", "negative-frontier-id",
     _record(-1, lambda r: r.update(frontier=[-1, _count(r)]))),
    ("compact", "parent-out-of-range",
     _record(0, lambda r: r["parent"].__setitem__(-1, BIG))),
    # an initial node's parent is -1; anything lower is out of range
    ("compact", "init-node-out-of-range",
     _record(0, lambda r: r["parent"].__setitem__(0, -2))),
    ("compact", "packed-outside-the-layout",
     _record(-1, lambda r: r["packed"].__setitem__(-1, 1 << 200))),
    ("compact", "packed-code-beyond-its-domain",
     _record(-1, lambda r: r["packed"].__setitem__(
         -1, _beyond_domain(r["packed"][-1])))),
]


@pytest.fixture(scope="module")
def interrupted(tmp_path_factory):
    """One mid-run log per engine (budget-interrupted, so a resume has
    real work left and would really index the tables)."""
    directory = tmp_path_factory.mktemp("interrupted")
    paths = {"full": str(directory / "full.ckpt"),
             "compact": str(directory / "compact.ckpt")}
    with pytest.raises(StateSpaceExplosion):
        explore(mutex_spec(), max_states=60, checkpoint=paths["full"])
    with pytest.raises(StateSpaceExplosion):
        explore_compact(mutex_spec(), max_states=60,
                        checkpoint=paths["compact"])
    return {engine: read_log(path) for engine, path in paths.items()}


@pytest.mark.parametrize("engine,mutation",
                         [(engine, mutation)
                          for engine, _id, mutation in MUTATIONS],
                         ids=[f"{engine}-{mid}"
                              for engine, mid, _m in MUTATIONS])
def test_malformed_checkpoint_fails_closed(engine, mutation, interrupted,
                                           tmp_path, capsys):
    log = json.loads(json.dumps(interrupted[engine]))  # deep copy
    mutation(log)
    path = str(tmp_path / "bad.ckpt")
    write_log(path, log)
    resumer = resume if engine == "full" else resume_compact
    with pytest.raises(CheckpointError):
        resumer(path, mutex_spec(), max_states=10_000, checkpoint=None)
    argv = ["explore", f"@{MODULE}", "--checkpoint", path, "--resume",
            "--max-states", "10000"]
    assert cli_main(argv) == 2
    out = capsys.readouterr().out
    # a handled CheckpointError prints its message bare; the CLI's
    # catch-all would have prefixed the exception's type name
    assert out.startswith(f"error: {path}: "), out
    assert "Traceback" not in out


def test_untouched_snapshots_still_resume(interrupted, tmp_path):
    """The table's control row: the same logs, re-framed unmutated,
    resume."""
    reference = explore(mutex_spec())
    for engine, resumer in (("full", resume), ("compact", resume_compact)):
        path = str(tmp_path / f"{engine}.ckpt")
        write_log(path, interrupted[engine])
        graph = resumer(path, mutex_spec(), max_states=10_000,
                        checkpoint=None)
        assert graph.state_count == reference.state_count


# ---------------------------------------------------------------------------
# logs from before the worker fleet was deleted
# ---------------------------------------------------------------------------


def test_fleet_era_compact_log_still_resumes(interrupted, tmp_path):
    """A coordinator's log was a compact log whose records also carried
    a ``"distributed"`` section (pristine fingerprint ranges, worker
    URLs, per-level partition counts) and fleet counters in their
    stats.  Re-framed with valid checksums, such a log resumes on one
    machine to the uninterrupted run's digest."""
    log = json.loads(json.dumps(interrupted["compact"]))  # deep copy
    for record in log[1:]:
        record["distributed"] = {
            "worker_urls": ["http://127.0.0.1:9"],
            "ranges": [[0, 1 << 64]],
            "level_partitions": [[len(record["parent"])]],
        }
        record["stats"] = dict(record["stats"] or {}, **FLEET_STATS)
    path = str(tmp_path / "fleet-era.ckpt")
    write_log(path, log)
    stats = ExploreStats()
    graph = resume_compact(path, mutex_spec(), max_states=10_000,
                           stats=stats, checkpoint=None)
    assert graph.digest() == explore_compact(mutex_spec()).digest()
    assert set(stats.as_dict()) == STATS


def test_stats_restore_ignores_dropped_fleet_keys():
    snapshot = ExploreStats().as_dict()
    snapshot.update(FLEET_STATS, workers=2, fingerprint_collisions=3)
    stats = ExploreStats()
    stats.restore(snapshot)
    assert stats.workers == 2 and stats.fingerprint_collisions == 3
    assert set(stats.as_dict()) == STATS
    assert not any(hasattr(stats, key) for key in FLEET_STATS)


# ---------------------------------------------------------------------------
# logs from before partial-order reduction was deleted
# ---------------------------------------------------------------------------

# the stats keys every record carried while reduction existed
POR_STATS = {"por_enabled": None, "por_reason": None, "por_counters": {}}


def test_unreduced_por_era_full_log_still_resumes(interrupted, tmp_path):
    """A full log of that era names a null ``reduction`` in its header
    and carries the reduction counters in its stats; unreduced, it is
    today's log and resumes to the uninterrupted run's digest."""
    log = json.loads(json.dumps(interrupted["full"]))  # deep copy
    log[0]["reduction"] = None
    for record in log[1:]:
        record["stats"] = dict(record["stats"] or {}, **POR_STATS)
    path = str(tmp_path / "por-era.ckpt")
    write_log(path, log)
    stats = ExploreStats()
    graph = resume(path, mutex_spec(), max_states=10_000, stats=stats,
                   checkpoint=None)
    assert digest_of_graph(graph) == digest_of_graph(explore(mutex_spec()))
    assert set(stats.as_dict()) == STATS


def test_reduced_full_log_fails_closed(interrupted, tmp_path, capsys):
    """A log written under reduction holds a reduced graph, which no
    engine here can continue: it is refused in one line."""
    log = json.loads(json.dumps(interrupted["full"]))  # deep copy
    log[0]["reduction"] = {"observed_vars": ["cs1", "cs2"]}
    path = str(tmp_path / "reduced.ckpt")
    write_log(path, log)
    with pytest.raises(CheckpointError,
                       match="partial-order reduction") as excinfo:
        resume(path, mutex_spec(), max_states=10_000, checkpoint=None)
    assert "\n" not in str(excinfo.value)
    assert cli_main(["explore", f"@{MODULE}", "--checkpoint", path,
                     "--resume", "--max-states", "10000"]) == 2
    out = capsys.readouterr().out
    assert out == f"error: {excinfo.value}\n"


# ---------------------------------------------------------------------------
# logs from before the spill store was deleted and compact kept edges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store", [
    {"kind": "mem"},
    {"kind": "spill", "spill_dir": "/nonexistent/spill", "hot_capacity": 8},
], ids=["mem", "spill"])
def test_store_era_full_log_resumes_in_ram(interrupted, tmp_path, store):
    log = json.loads(json.dumps(interrupted["full"]))  # deep copy
    log[0]["store"] = store
    path = str(tmp_path / "store-era.ckpt")
    write_log(path, log)
    graph = resume(path, mutex_spec(), max_states=10_000, checkpoint=None)
    assert digest_of_graph(graph) == digest_of_graph(explore(mutex_spec()))


def _edgeless_compact_log(interrupted, tmp_path):
    """A compact log as the engine wrote it before it kept edges."""
    log = json.loads(json.dumps(interrupted["compact"]))  # deep copy
    for record in log[1:]:
        del record["succ"]
    path = str(tmp_path / "edgeless.ckpt")
    write_log(path, log)
    return path


def test_edgeless_compact_log_fails_closed(interrupted, tmp_path, capsys):
    path = _edgeless_compact_log(interrupted, tmp_path)
    with pytest.raises(CheckpointError, match="holds no succ") as excinfo:
        resume_compact(path, mutex_spec(), max_states=10_000,
                       checkpoint=None)
    assert "\n" not in str(excinfo.value)
    assert cli_main(["explore", f"@{MODULE}", "--checkpoint", path,
                     "--resume", "--max-states", "10000"]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: {path}: record 0 holds no succ")
    assert out.count("\n") == 1 and "Traceback" not in out


CHAIN_TLA = """
MODULE Chain
VARIABLE x \\in 0..40
Init == x = 0
Next == x' = IF x < 40 THEN x + 1 ELSE x
Spec == Init /\\ [][Next]_<<x>>
Bound == x <= 40
"""


def test_edgeless_compact_log_fails_the_job_closed(tmp_path):
    """A service check process resuming such a log answers ``failed``
    with the one-line cause, instead of dying or continuing."""
    from repro.service.jobs import CheckRequest, run_check
    from repro.service.pool import _check

    class Quiet:
        eof = False

        def pending(self):
            return []

    path = str(tmp_path / "job.ckpt")
    request = CheckRequest(CHAIN_TLA, invariants=("Bound",))
    # a budget-capped run leaves a mid-run compact log behind
    capped = run_check(CheckRequest(CHAIN_TLA, invariants=("Bound",),
                                    max_states=10), checkpoint=path)
    assert capped["verdict"] == "explosion"
    header, *records = read_log(path)
    assert header["mode"] == "compact"
    for record in records:
        del record["succ"]
    write_log(path, [header, *records])
    outcome = _check({"op": "run", "request": request.to_dict(),
                      "checkpoint": path, "resume": True},
                     Quiet(), lambda _frame: None)
    assert outcome["outcome"] == "failed"
    assert outcome["error"].startswith("CheckpointError: ")
    assert "holds no succ" in outcome["error"]
    assert "\n" not in outcome["error"]
