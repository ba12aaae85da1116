"""Checkpoints are outside input: the one level-log reader fails closed.

Both engines' logs go through
:func:`repro.checker.checkpoint.read_checkpoint`.  This file pins

* the bytes' *shape*: the header and record key sets of full, compact
  and distributed logs (``CHECKPOINT_VERSION`` is 2: the append-only
  level log);
* one table of hostile mutations per engine, applied to header or
  record fields and re-framed with valid checksums: every one is a
  :class:`CheckpointError` from the library and exit 2 from the CLI,
  never a ``TypeError`` / ``IndexError`` / ``ValueError`` traceback and
  never a run quietly continued from garbage;
* ``resume_distributed`` refusing a reduced (POR) snapshot instead of
  silently continuing it unreduced.
"""

from __future__ import annotations

import json

import pytest

from repro.checker import (
    CheckpointError,
    ReductionConfig,
    StateSpaceExplosion,
    explore,
    explore_compact,
    explore_distributed,
    resume,
    resume_compact,
    resume_distributed,
    spawn_local_workers,
)
from repro.checker.checkpoint import CHECKPOINT_VERSION
from repro.systems import bundled_module
from repro.systems.queue import QueueChain
from repro.tools.cli import main as cli_main

from .test_checkpoint_log import read_log, write_log

MODULE = "mutex:n=2,clock=2"

HEADER = ["format", "version", "mode", "spec_name", "max_states",
          "workers", "checkpoint_every"]
FULL_HEADER = HEADER + ["variables", "reduction", "store"]
COMPACT_HEADER = HEADER + ["codec_signature"]
RECORD = {"nodes_from", "parent", "frontier", "depth", "levels",
          "elapsed_seconds", "stats"}
FULL_RECORD = RECORD | {"states", "fingerprints", "succ"}
COMPACT_RECORD = RECORD | {"packed", "edge_count", "digest"}
DISTRIBUTED_SECTION = {"worker_urls", "ranges", "level_partitions"}


def mutex_spec():
    return bundled_module(MODULE).spec("Spec")


# ---------------------------------------------------------------------------
# the bytes' shape
# ---------------------------------------------------------------------------


def test_snapshot_key_sets_are_pinned(tmp_path):
    assert CHECKPOINT_VERSION == 2
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(mutex_spec(), checkpoint=full)
    explore_compact(mutex_spec(), checkpoint=compact)
    with spawn_local_workers(1) as pool:
        dist_compact = str(tmp_path / "dist-compact")
        explore_distributed(mutex_spec(), pool.urls, checkpoint=dist_compact)
    for path, header_keys, record_keys in (
            (full, FULL_HEADER, FULL_RECORD),
            (compact, COMPACT_HEADER, COMPACT_RECORD),
            (dist_compact, COMPACT_HEADER,
             COMPACT_RECORD | {"distributed"})):
        header, *records = read_log(path)
        # the header's keys come in one order, the shared ones first
        assert list(header) == header_keys, path
        assert header["version"] == 2
        assert header["mode"] == (None if path == full else "compact")
        assert len(records) > 1, path
        for record in records:
            assert set(record) == record_keys, path
            if "distributed" in record:
                assert set(record["distributed"]) == DISTRIBUTED_SECTION


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
    if engine == "compact":
        argv.append("--compact")
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
# resume_distributed must not silently drop partial-order reduction
# ---------------------------------------------------------------------------


def _interrupted_reduced_run(make_spec, path):
    """Explore under POR, interrupt at half budget; returns the reduced
    reference graph."""
    reduction = ReductionConfig(())
    reduced = explore(make_spec(), reduction=reduction)
    assert reduced.reduction_used
    with pytest.raises(StateSpaceExplosion):
        explore(make_spec(), reduction=reduction,
                max_states=reduced.state_count // 2, checkpoint=path)
    return reduced


def test_resume_distributed_refuses_reduced_checkpoint(tmp_path, capsys):
    """A reduced QueueChain(2,1) explores 348 states, an unreduced one
    670.  Continuing a reduced snapshot on a fleet (whose workers expand
    unreduced) used to return a 520-state hybrid of the two."""
    def chain():
        return QueueChain(2, 1).complete_spec()

    path = str(tmp_path / "chain.ckpt")
    reduced = _interrupted_reduced_run(chain, path)
    cli_path = str(tmp_path / "mutex.ckpt")
    _interrupted_reduced_run(mutex_spec, cli_path)
    with spawn_local_workers(1) as pool:
        with pytest.raises(CheckpointError, match="reduction"):
            resume_distributed(path, pool.urls, chain(), max_states=10_000)
        code = cli_main(["coordinate", f"@{MODULE}",
                         "--worker-at", pool.urls[0],
                         "--checkpoint", cli_path, "--resume",
                         "--max-states", "10000"])
    assert code == 2
    assert "reduction" in capsys.readouterr().out
    # one machine still finishes the run, reduced
    resumed = resume(path, chain(), max_states=10_000, checkpoint=None)
    assert resumed.state_count == reduced.state_count == 348
