"""Checkpoints are outside input: the one envelope reader fails closed.

Both engines' snapshots go through
:func:`repro.checker.checkpoint.read_checkpoint`.  This file pins

* the bytes' *shape*: the top-level and body key sets of full, compact
  and distributed snapshots (``CHECKPOINT_VERSION`` stays 1 -- the
  envelope refactor must not move a key);
* one table of hostile mutations per engine: every one is a
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

MODULE = "mutex:n=2,clock=2"

HEADER = {"format", "version", "spec_name", "spec_pickle", "max_states",
          "workers", "checkpoint_every", "depth", "levels",
          "elapsed_seconds", "frontier", "stats"}
FULL_KEYS = HEADER | {"graph", "reduction", "store"}
COMPACT_KEYS = HEADER | {"mode", "compact"}
GRAPH_BODY = {"variables", "states", "fingerprints", "succ", "parent",
              "init_nodes"}
COMPACT_BODY = {"codec_signature", "packed", "parent", "init_nodes",
                "edge_count", "digest"}
DISTRIBUTED_SECTION = {"worker_urls", "ranges", "level_partitions"}


def mutex_spec():
    return bundled_module(MODULE).spec("Spec")


def read(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# the bytes' shape
# ---------------------------------------------------------------------------


def test_snapshot_key_sets_are_pinned(tmp_path):
    assert CHECKPOINT_VERSION == 1
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(mutex_spec(), checkpoint=full)
    explore_compact(mutex_spec(), checkpoint=compact)
    with spawn_local_workers(1) as pool:
        dist_compact = str(tmp_path / "dist-compact")
        explore_distributed(mutex_spec(), pool.urls, checkpoint=dist_compact)
    for path, keys, body_key, body in (
            (full, FULL_KEYS, "graph", GRAPH_BODY),
            (compact, COMPACT_KEYS, "compact", COMPACT_BODY),
            (dist_compact, COMPACT_KEYS | {"distributed"}, "compact",
             COMPACT_BODY)):
        payload = read(path)
        assert set(payload) == keys, path
        assert set(payload[body_key]) == body, path
        assert payload["version"] == 1
        assert payload.get("mode") == ("compact" if "mode" in keys else None)
        if "distributed" in keys:
            assert set(payload["distributed"]) == DISTRIBUTED_SECTION
    # the header comes first and in one order for both engines
    assert [key for key in read(full) if key in HEADER] == \
        [key for key in read(compact) if key in HEADER]


# ---------------------------------------------------------------------------
# hostile mutations, both engines, one table
# ---------------------------------------------------------------------------

BIG = 10 ** 6


def _set(section, key, value):
    def mutate(payload):
        target = payload[section] if section else payload
        target[key] = value
    return mutate


def _edit(section, key, edit):
    def mutate(payload):
        edit(payload[section][key])
    return mutate


MUTATIONS = [
    # (engine, id, mutation)
    ("full", "frontier-not-a-list", _set(None, "frontier", 5)),
    ("full", "frontier-id-out-of-range", _set(None, "frontier", [BIG])),
    ("full", "short-fingerprints",
     _edit("graph", "fingerprints", lambda rows: rows.pop())),
    ("full", "short-parent",
     _edit("graph", "parent", lambda rows: rows.pop())),
    ("full", "graph-not-an-object", _set(None, "graph", [])),
    ("full", "workers-not-an-int", _set(None, "workers", "two")),
    ("full", "dangling-succ-target",
     _edit("graph", "succ", lambda rows: rows[0].append(BIG))),
    ("full", "checkpoint-every-zero", _set(None, "checkpoint_every", 0)),
    ("full", "levels-not-an-int", _set(None, "levels", "x")),
    ("compact", "garbage-digest",
     _set("compact", "digest", ["x", 1, 2, 3])),
    ("compact", "workers-not-an-int", _set(None, "workers", "two")),
    ("compact", "negative-frontier-id", _set(None, "frontier", [-1])),
    ("compact", "parent-out-of-range",
     _edit("compact", "parent", lambda rows: rows.__setitem__(1, BIG))),
    ("compact", "init-node-out-of-range",
     _set("compact", "init_nodes", [BIG])),
    ("compact", "packed-outside-the-layout",
     _edit("compact", "packed",
           lambda rows: rows.__setitem__(-1, 1 << 200))),
]


@pytest.fixture(scope="module")
def interrupted(tmp_path_factory):
    """One mid-run snapshot per engine (budget-interrupted, so a resume
    has real work left and would really index the tables)."""
    directory = tmp_path_factory.mktemp("interrupted")
    paths = {"full": str(directory / "full.ckpt"),
             "compact": str(directory / "compact.ckpt")}
    with pytest.raises(StateSpaceExplosion):
        explore(mutex_spec(), max_states=60, checkpoint=paths["full"])
    with pytest.raises(StateSpaceExplosion):
        explore_compact(mutex_spec(), max_states=60,
                        checkpoint=paths["compact"])
    return {engine: read(path) for engine, path in paths.items()}


@pytest.mark.parametrize("engine,mutation",
                         [(engine, mutation)
                          for engine, _id, mutation in MUTATIONS],
                         ids=[f"{engine}-{mid}"
                              for engine, mid, _m in MUTATIONS])
def test_malformed_checkpoint_fails_closed(engine, mutation, interrupted,
                                           tmp_path, capsys):
    payload = json.loads(json.dumps(interrupted[engine]))  # deep copy
    mutation(payload)
    path = str(tmp_path / "bad.ckpt")
    with open(path, "w") as handle:
        json.dump(payload, handle)
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
    """The table's control row: the same files, unmutated, resume."""
    reference = explore(mutex_spec())
    for engine, resumer in (("full", resume), ("compact", resume_compact)):
        path = str(tmp_path / f"{engine}.ckpt")
        with open(path, "w") as handle:
            json.dump(interrupted[engine], handle)
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
