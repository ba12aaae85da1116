"""Checkpoint/resume correctness: round-trips and bit-for-bit resumption.

Three layers of property-based evidence that durable runs are exact:

* **value/state round-trips** -- the tagged portable encoding of
  :mod:`repro.kernel.state` reproduces every value, state, and
  fingerprint exactly;
* **graph round-trips** -- for seeded random specs (reusing the
  generators of ``tests/test_property_random_specs.py``), serializing an
  explored :class:`StateGraph` through a checkpoint file and restoring
  it reproduces the graph field-for-field: node numbering, adjacency
  order, stutter split, BFS parents, init nodes;
* **kill-and-resume equality** -- for every bundled system, interrupting
  a checkpointed run after its k-th snapshot (for *every* k) and
  resuming yields a graph bit-for-bit identical to the uninterrupted
  serial run; likewise resuming under more workers, and resuming after
  a :class:`StateSpaceExplosion` with a larger budget.  The file embeds
  no spec: every resume takes it from the caller.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.checker import (
    CheckpointError,
    StateSpaceExplosion,
    explore,
    load_checkpoint,
    resume,
    save_checkpoint,
)
from repro.checker.checkpoint import CHECKPOINT_VERSION, LevelLog
from repro.checker.stats import ExploreStats
from repro.kernel.expr import And, Const, Eq, Or, Var
from repro.kernel.state import (
    State,
    value_from_portable,
    value_to_portable,
)
from repro.spec import Spec

from .systems_under_test import CASE_PARAMS
from .test_checkpoint_log import frame_spans, read_log, write_log
from .test_property_random_specs import random_action, random_universe


# ---------------------------------------------------------------------------
# portable value / state round-trips
# ---------------------------------------------------------------------------


PORTABLE_VALUES = [
    True,
    False,
    0,
    -7,
    12345,
    "",
    "hello",
    (),
    (1, 2, 3),
    ("a", (1, (2,)), False),
    frozenset(),
    frozenset({1, 2, 3}),
    frozenset({(1, 2), (3,)}),
    ((frozenset({1}), "x"), frozenset({("y", 0)})),
]


@pytest.mark.parametrize("value", PORTABLE_VALUES,
                         ids=[repr(v) for v in PORTABLE_VALUES])
def test_portable_value_roundtrip(value):
    encoded = value_to_portable(value)
    json.dumps(encoded)  # must be JSON-serializable as-is
    decoded = value_from_portable(json.loads(json.dumps(encoded)))
    assert decoded == value
    assert type(decoded) is type(value)


def test_portable_encoding_rejects_unknown_types():
    with pytest.raises(TypeError):
        value_to_portable(object())
    with pytest.raises(ValueError):
        value_from_portable(["X", 1])


def test_frozenset_encoding_is_order_independent():
    a = value_to_portable(frozenset({3, 1, 2}))
    b = value_to_portable(frozenset({2, 3, 1}))
    assert a == b  # canonical element order -> stable checkpoint bytes


@pytest.mark.parametrize("seed", range(10))
def test_state_portable_roundtrip(seed):
    rng = random.Random(seed)
    universe = random_universe(rng)
    for state in universe.states():
        back = State.from_portable(state.to_portable())
        assert back == state
        assert hash(back) == hash(state)
        assert back.fingerprint() == state.fingerprint()


# ---------------------------------------------------------------------------
# random-spec graph round-trips
# ---------------------------------------------------------------------------


def random_spec(seed: int) -> Spec:
    """A seeded random spec: random action, one or two random initial
    states (the property-suite generators, wrapped as a Spec)."""
    rng = random.Random(seed)
    universe = random_universe(rng)
    action = random_action(rng, universe)
    inits = [
        And(*[Eq(Var(name),
                 Const(rng.choice(list(universe.domain(name).values()))))
              for name in universe.variables])
        for _ in range(rng.randint(1, 2))
    ]
    return Spec(f"rand{seed}", Or(*inits), action,
                tuple(universe.variables), universe)


def assert_same_graph(restored, original):
    assert restored.states == original.states
    assert restored.succ == original.succ
    assert restored.parent == original.parent
    assert restored.init_nodes == original.init_nodes
    assert restored.edge_count == original.edge_count
    assert restored.stutter_count == original.stutter_count
    assert all(restored.lookup(state) == node
               for node, state in enumerate(original.states))


@pytest.mark.parametrize("seed", range(25))
def test_random_graph_checkpoint_roundtrip(seed, tmp_path):
    spec = random_spec(seed)
    graph = explore(spec)
    path = str(tmp_path / "graph.ckpt")
    save_checkpoint(path, spec, graph, frontier=[], depth=3, levels=4,
                    elapsed_seconds=1.5)
    loaded = load_checkpoint(path)
    assert loaded.depth == 3
    assert loaded.levels == 4
    assert loaded.elapsed_seconds == 1.5
    assert loaded.frontier == []
    assert_same_graph(loaded.restore_graph(spec), graph)


@pytest.mark.parametrize("seed", range(5))
def test_checkpoint_file_is_stable_json(seed, tmp_path):
    # two saves of the same run produce byte-identical files: the
    # JSON frames have no process-, hash-seed-, or time-dependent parts
    spec = random_spec(seed)
    graph = explore(spec)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, spec, graph, [], depth=1, levels=1,
                    elapsed_seconds=0.0)
    save_checkpoint(b, spec, graph, [], depth=1, levels=1,
                    elapsed_seconds=0.0)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    assert len(read_log(a)) == 2  # the header and one record


# ---------------------------------------------------------------------------
# kill-and-resume equality on the bundled systems
# ---------------------------------------------------------------------------


class _SimulatedCrash(Exception):
    """Raised by the instrumented checkpointer to cut a run short."""


def _run_until_crash(monkeypatch, spec, path, crash_after: int) -> int:
    """Explore with checkpointing, killing the run right after its
    ``crash_after``-th snapshot; returns the number of snapshots taken."""
    real_append = LevelLog.append
    saves = [0]

    def crashing_append(log, record):
        real_append(log, record)
        saves[0] += 1
        if saves[0] >= crash_after:
            raise _SimulatedCrash()

    monkeypatch.setattr(LevelLog, "append", crashing_append)
    try:
        explore(spec, checkpoint=path, checkpoint_every=1)
    except _SimulatedCrash:
        pass
    finally:
        monkeypatch.undo()
    return saves[0]


def _count_snapshots(spec, scratch_path: str) -> int:
    """How many snapshots a checkpoint_every=1 run of *spec* takes."""
    explore(spec, checkpoint=scratch_path, checkpoint_every=1)
    return len(frame_spans(scratch_path)) - 1  # one record per snapshot


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_resume_after_crash_at_every_level(case, tmp_path, monkeypatch):
    """The acceptance criterion: kill after the k-th snapshot, for every
    k, and the resumed graph is bit-for-bit the uninterrupted one."""
    spec = case.make_spec()
    reference = explore(spec)
    total = _count_snapshots(case.make_spec(), str(tmp_path / "scratch.ckpt"))
    assert total >= 1, f"{case.id}: expected at least one snapshot"
    for k in range(1, total + 1):
        path = str(tmp_path / f"crash{k}.ckpt")
        taken = _run_until_crash(monkeypatch, case.make_spec(), path, k)
        assert taken == k
        resumed = resume(path, case.make_spec(), checkpoint=None)
        assert_same_graph(resumed, reference)


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_checkpointed_run_equals_plain_run(case, tmp_path):
    spec = case.make_spec()
    reference = explore(case.make_spec())
    path = str(tmp_path / "run.ckpt")
    checkpointed = explore(spec, checkpoint=path, checkpoint_every=1)
    assert_same_graph(checkpointed, reference)


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_resume_with_more_workers_is_identical(case, tmp_path, monkeypatch):
    spec = case.make_spec()
    reference = explore(spec)
    path = str(tmp_path / "run.ckpt")
    _run_until_crash(monkeypatch, case.make_spec(), path, 1)
    resumed = resume(path, case.make_spec(), workers=2, checkpoint=None)
    assert_same_graph(resumed, reference)


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_resume_uses_embedded_spec(case, tmp_path, monkeypatch):
    """Files used to embed a pickled spec for ``resume(path)``; they
    embed none now, so the spec is a required argument and the header's
    variables are checked against it."""
    reference = explore(case.make_spec())
    path = str(tmp_path / "run.ckpt")
    _run_until_crash(monkeypatch, case.make_spec(), path, 1)
    with open(path, "rb") as handle:
        assert b"pickle" not in handle.read()
    with pytest.raises(TypeError):
        resume(path, checkpoint=None)
    assert_same_graph(resume(path, case.make_spec(), checkpoint=None),
                      reference)


def test_explosion_then_resume_with_bigger_budget(tmp_path):
    from repro.systems.queue import complete_queue

    spec = complete_queue(2)
    reference = explore(spec)
    path = str(tmp_path / "run.ckpt")
    with pytest.raises(StateSpaceExplosion):
        explore(complete_queue(2), max_states=50, checkpoint=path,
                checkpoint_every=1)
    # the last snapshot before the explosion survives; a larger budget
    # continues to exactly the full graph
    resumed = resume(path, complete_queue(2),
                     max_states=reference.state_count, checkpoint=None)
    assert_same_graph(resumed, reference)


def test_resumed_run_keeps_checkpointing_to_same_path(tmp_path, monkeypatch):
    from repro.systems.queue import complete_queue

    path = str(tmp_path / "run.ckpt")
    _run_until_crash(monkeypatch, complete_queue(2), path, 1)
    first = load_checkpoint(path)
    resume(path, complete_queue(2))  # default: keep writing to `path`
    final = load_checkpoint(path)
    assert final.levels > first.levels


def test_resume_restores_stats_counters(tmp_path, monkeypatch):
    from repro.systems.queue import complete_queue

    spec = complete_queue(2)
    path = str(tmp_path / "run.ckpt")
    stats = ExploreStats()
    stats.record_retry("crash")  # pretend the first leg saw a retry
    graph = explore(spec, stats=stats, checkpoint=path, checkpoint_every=1)
    resumed_stats = ExploreStats()
    resume(path, complete_queue(2), stats=resumed_stats, checkpoint=None)
    assert resumed_stats.worker_retries == {"crash": 1}
    assert resumed_stats.states == graph.state_count
    # elapsed time carries over: the resumed total includes the stored leg
    assert resumed_stats.explore_seconds > 0.0


# ---------------------------------------------------------------------------
# validation and integrity
# ---------------------------------------------------------------------------


def _write_tampered(tmp_path, mutate):
    """Save a one-record log, apply *mutate* to ``[header, record]``,
    and write it back with valid checksums."""
    from repro.systems.queue import complete_queue

    spec = complete_queue(1)
    graph = explore(spec)
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, spec, graph, [], depth=0, levels=0,
                    elapsed_seconds=0.0)
    log = read_log(path)
    mutate(log)
    write_log(path, log)
    return path, spec


def test_fingerprint_mismatch_is_detected(tmp_path):
    def corrupt(log):
        log[1]["fingerprints"][0] = "0" * 16

    path, spec = _write_tampered(tmp_path, corrupt)
    with pytest.raises(CheckpointError, match="fingerprint mismatch"):
        load_checkpoint(path).restore_graph(spec)


def test_state_outside_the_domains_is_refused(tmp_path):
    # a row whose stored fingerprint agrees with it but whose value the
    # spec's codec cannot encode: refused, never restored
    def corrupt(log):
        variables, row = log[0]["variables"], log[1]["states"][0]
        row[0] = 12345
        state = State.from_portable(dict(zip(variables, row)))
        log[1]["fingerprints"][0] = format(state.fingerprint(), "016x")

    path, spec = _write_tampered(tmp_path, corrupt)
    with pytest.raises(CheckpointError,
                       match="state 0 cannot be decoded .*outside its domain"):
        load_checkpoint(path).restore_graph(spec)


def test_wrong_format_is_rejected(tmp_path):
    path, _spec = _write_tampered(
        tmp_path, lambda log: log[0].update(format="something-else"))
    with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
        load_checkpoint(path)


def test_future_version_is_rejected(tmp_path):
    path, _spec = _write_tampered(
        tmp_path,
        lambda log: log[0].update(version=CHECKPOINT_VERSION + 1))
    with pytest.raises(CheckpointError, match="unsupported checkpoint"):
        load_checkpoint(path)


def test_variable_mismatch_is_rejected(tmp_path):
    def rename(log):
        log[0]["variables"][0] = "zz"

    path, spec = _write_tampered(tmp_path, rename)
    with pytest.raises(CheckpointError, match="do not match"):
        load_checkpoint(path).restore_graph(spec)


def test_truncated_file_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "broken.ckpt"
    path.write_text('{"format": "repro-checkpoint", "ver')
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(str(path))
    # a log cut inside its header (never written that way: the header
    # goes to disk together with the first record, atomically)
    path, _spec = _write_tampered(tmp_path, lambda log: None)
    header_end = frame_spans(path)[0][1]
    os.truncate(path, header_end - 1)
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope.ckpt"))
