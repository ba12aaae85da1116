"""Differential tests for the state-space reduction subsystem.

Two claims, checked empirically against the unreduced serial explorer
(the reference semantics):

* **Partial-order reduction never changes verdicts or reported
  traces.**  For every bundled system and a battery of seeded random
  specs, POR-on and POR-off runs must agree on invariant verdicts,
  counterexample traces (via the canonicalising re-exploration in
  the check pipeline, :class:`repro.engine.ExplicitEngine`), and
  deadlock existence -- while the reduced runs are free to visit fewer
  states.  Reduced exploration must itself be bit-for-bit deterministic
  across worker counts (ample sets are computed in workers, the C3
  proviso on the coordinator in serial merge order).
* **The state representation is invisible.**  The compact engine
  (packed rows, CSR edges) must produce the *identical* graph -- same
  states under the same node numbering, same adjacency, same BFS
  parents -- as the dict-backed one, and reduced checkpoints must
  survive explosion / worker-kill interruptions and resume
  bit-for-bit.
"""

from __future__ import annotations

import functools
import os
import random

import pytest

import repro.checker.parallel as parallel_module
from repro.checker import (
    CheckpointError,
    ExploreStats,
    ReductionConfig,
    StateSpaceExplosion,
    check_deadlock_free,
    check_invariant,
    decompose,
    explore,
    explore_compact,
    explore_parallel,
    resume,
    resume_compact,
)
from repro.kernel.expr import Cmp, Const, Len, Var
from repro.spec import Spec
from repro.systems.handshake import ready
from repro.systems.queue import QueueChain, complete_queue

from .systems_under_test import CASES, check_invariant_reduced
from .test_fault_injection import _kill_once
from .test_property_random_specs import random_action, random_universe

WORKER_COUNTS = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
if _extra and _extra not in WORKER_COUNTS:
    WORKER_COUNTS.append(_extra)


def graph_signature(graph):
    """Everything that must be bit-for-bit equal between two runs (an
    initial node's parent is ``None`` in one graph class, ``-1`` in the
    other)."""
    return (list(graph.states), [list(adj) for adj in graph.succ],
            [-1 if p is None else p for p in graph.parent],
            list(graph.init_nodes), graph.edge_count, graph.stutter_count)


# the bundled invariant cases: (system id, spec factory, invariant expr,
# expected verdict) -- one violated and one satisfied invariant per
# reducible system, so both the counterexample path and the ok path of
# the reduced checker are exercised
INVARIANT_CASES = [
    pytest.param(lambda: complete_queue(2),
                 Cmp("<=", Len(Var("q")), 1), False, id="queue-violated"),
    pytest.param(lambda: complete_queue(2),
                 Cmp("<=", Len(Var("q")), 2), True, id="queue-ok"),
    pytest.param(lambda: QueueChain(2, 1).complete_spec(),
                 Cmp("<=", Len(Var("q1")), 1), True, id="chain-ok"),
    pytest.param(lambda: QueueChain(2, 1).complete_spec(),
                 Cmp("<=", Len(Var("q2")), 0), False, id="chain-violated"),
]


# ---------------------------------------------------------------------------
# POR verdict / trace equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_spec,invariant,expected_ok", INVARIANT_CASES)
def test_por_invariant_verdict_and_trace_identical(make_spec, invariant,
                                                   expected_ok):
    spec = make_spec()
    full = check_invariant(explore(spec), invariant, name="inv")
    reduced, used = check_invariant_reduced(spec, invariant, name="inv")
    assert full.ok == reduced.ok == expected_ok
    if not expected_ok:
        # the canonicalising re-exploration makes even the *trace* equal
        assert (reduced.counterexample.render()
                == full.counterexample.render())


def test_handshake_reduction_correct_but_unprofitable():
    """Two mutually dependent classes: POR stays enabled but every state
    is fully expanded, and verdicts are untouched."""
    case = next(c for c in CASES if c.id == "handshake")
    spec = case.make_spec()
    full = check_invariant(explore(spec), ready("c"), name="ready")
    reduced, used = check_invariant_reduced(spec, ready("c"), name="ready")
    assert not used  # dependent classes: no state is ample-expanded
    assert full.ok == reduced.ok
    assert (reduced.counterexample.render()
            == full.counterexample.render())


@pytest.mark.parametrize("case", [pytest.param(c, id=c.id) for c in CASES])
def test_por_deadlock_existence_preserved(case):
    """C0/C1 preserve deadlocks: the reduced graph reports a deadlock iff
    the full graph has one (persistent sets keep every deadlock state
    reachable, and prune no successor down to zero)."""
    spec = case.make_spec()
    full_verdict = check_deadlock_free(explore(spec)).ok
    reduced = explore(spec, reduction=ReductionConfig(()))
    assert check_deadlock_free(reduced).ok == full_verdict


def test_chain_reduction_shrinks_the_graph():
    """The k-queue chain is the profitable shape: disjoint components
    give independent classes, and the reduced graph is strictly smaller
    with the same deadlock verdict."""
    spec = QueueChain(2, 1).complete_spec()
    full = explore(spec)
    stats = ExploreStats()
    reduced = explore(spec, stats=stats, reduction=ReductionConfig(()))
    assert reduced.state_count < full.state_count
    assert stats.por_enabled is True
    assert stats.por_counters["ample_states"] > 0
    assert (check_deadlock_free(reduced).ok
            == check_deadlock_free(full).ok)


def test_chain_reduction_exact_state_counts():
    """The k=3 chain pins POR's payoff exactly: 6,038 states full,
    2,240 under deadlock-only observation (the reduced graph is
    machine-independent), with the same deadlock verdict."""
    spec = QueueChain(3, 1).complete_spec()
    full = explore(spec)
    stats = ExploreStats()
    reduced = explore(spec, stats=stats, reduction=ReductionConfig(()))
    assert stats.por_enabled is True
    assert (full.state_count, reduced.state_count) == (6_038, 2_240)
    assert (check_deadlock_free(reduced).ok
            == check_deadlock_free(full).ok)


def test_liveness_shaped_specs_auto_disable():
    """Specs whose decomposition collapses are refused with a recorded
    reason, and the run silently falls back to full exploration."""
    case = next(c for c in CASES if c.id == "arbiter")
    spec = case.make_spec()
    stats = ExploreStats()
    reduced = explore(spec, stats=stats, reduction=ReductionConfig(()))
    assert stats.por_enabled is False
    assert stats.por_reason
    assert graph_signature(reduced) == graph_signature(explore(spec))


# ---------------------------------------------------------------------------
# seeded random specs: POR + both representations against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_random_specs_reduction_and_stores_agree(seed):
    rng = random.Random(seed)
    universe = random_universe(rng)
    spec = Spec(f"rand{seed}", Const(True), random_action(rng, universe),
                universe.variables, universe)
    full = explore(spec)
    # packed rows + CSR edges: bit-for-bit the dict-backed graph
    assert graph_signature(explore_compact(spec)) == graph_signature(full)
    # reduction: deadlock existence preserved ...
    reduced = explore(spec, reduction=ReductionConfig(()))
    assert check_deadlock_free(reduced).ok == check_deadlock_free(full).ok
    # ... and a random observed invariant gets the same verdict and the
    # same (canonical) counterexample trace
    name = rng.choice(universe.variables)
    bound = rng.choice(list(universe.domain(name).values()))
    invariant = Cmp("<=", Var(name), bound)
    full_result = check_invariant(full, invariant, name="inv")
    reduced_result, _used = check_invariant_reduced(spec, invariant,
                                                    name="inv")
    assert reduced_result.ok == full_result.ok
    if not full_result.ok:
        assert (reduced_result.counterexample.render()
                == full_result.counterexample.render())


# ---------------------------------------------------------------------------
# determinism across worker counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_reduced_parallel_matches_reduced_serial(workers):
    """The reduced graph -- not just its verdicts -- is identical for
    every worker count: ample sets are pure worker-side functions and the
    proviso is applied in serial merge order on the coordinator."""
    spec = complete_queue(2)
    config = ReductionConfig(("q",))
    serial = explore(spec, reduction=config)
    parallel = explore_parallel(spec, workers=workers, reduction=config)
    assert graph_signature(parallel) == graph_signature(serial)


# ---------------------------------------------------------------------------
# durability: reduced checkpoints under interruption, config mismatch refusal
# ---------------------------------------------------------------------------


def _interrupted_checkpoint(spec, tmp_path, budget):
    """Explode a reduced run mid-way, leaving a live checkpoint."""
    path = str(tmp_path / "run.ckpt")
    with pytest.raises(StateSpaceExplosion):
        explore(spec, max_states=budget, checkpoint=path,
                reduction=ReductionConfig(("q",)))
    return path


def test_resume_refuses_mismatched_configs(tmp_path):
    spec = complete_queue(2)
    path = _interrupted_checkpoint(spec, tmp_path, budget=60)
    with pytest.raises(CheckpointError, match="reduction"):
        resume(path, spec, max_states=200_000, reduction=None)
    with pytest.raises(CheckpointError, match="reduction"):
        resume(path, spec, max_states=200_000,
               reduction=ReductionConfig(("q", "i.sig")))  # wrong observed
    reference = explore(spec, reduction=ReductionConfig(("q",)))
    # by default the resumed run adopts the stored reduction ...
    graph = resume(path, spec, max_states=200_000, checkpoint=None)
    assert graph_signature(graph) == graph_signature(reference)
    # ... and a matching explicit config is accepted
    graph = resume(path, spec, max_states=200_000,
                   reduction=ReductionConfig(("q",)))
    assert graph_signature(graph) == graph_signature(reference)


def test_reduced_run_survives_worker_kill(tmp_path, monkeypatch):
    """Fault injection: a SIGKILLed worker mid-chunk does not perturb a
    reduced exploration (the chunk is retried and the merge stream --
    including proviso decisions -- is unchanged)."""
    monkeypatch.setattr(parallel_module, "_MIN_CHUNK", 1)
    spec = complete_queue(2)
    config = ReductionConfig(("q",))
    reference = explore(spec, reduction=config)
    stats = ExploreStats()
    hook = functools.partial(_kill_once, str(tmp_path / "killed.marker"))
    graph = explore_parallel(spec, workers=2, stats=stats, fault_hook=hook,
                             checkpoint=str(tmp_path / "run.ckpt"),
                             reduction=config)
    assert graph_signature(graph) == graph_signature(reference)
    assert stats.total_retries >= 1


# ---------------------------------------------------------------------------
# option validation: no silent degradation to the serial engine
# ---------------------------------------------------------------------------


def test_explicit_serial_with_parallel_only_options_rejected():
    spec = complete_queue(2)
    with pytest.raises(ValueError, match="serial"):
        explore_parallel(spec, workers=1, worker_timeout=5.0)
    with pytest.raises(ValueError, match="serial"):
        explore_parallel(spec, workers=1, fault_hook=_kill_once)


def test_resume_paths_validate_options_like_fresh_runs(tmp_path):
    """The same two rejections on both resume entry points: they share
    the fresh runs' option resolver."""
    spec = complete_queue(2)
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(spec, checkpoint=full)
    explore_compact(spec, checkpoint=compact)
    for resumer, path in ((resume, full), (resume_compact, compact)):
        with pytest.raises(ValueError, match="serial"):
            resumer(path, spec, workers=1, worker_timeout=5.0)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            resumer(path, spec, workers=-3)


def test_autosized_workers_keep_parallel_options():
    """workers=0 resolves to the core count and is exempt from the
    explicit-workers=1 rejection (it never *silently* degrades)."""
    spec = complete_queue(2)
    graph = explore_parallel(spec, workers=0, worker_timeout=60.0)
    assert graph_signature(graph) == graph_signature(explore(spec))


# ---------------------------------------------------------------------------
# observability: the new stats surface
# ---------------------------------------------------------------------------


def test_stats_summary_reports_reduction_and_levels():
    spec = complete_queue(2)
    stats = ExploreStats()
    explore(spec, stats=stats, reduction=ReductionConfig(("q",)))
    text = stats.summary()
    assert "reduction: por on" in text
    assert "per-level:" in text
    assert "real-edges" in text
    assert "peak RSS:" in text
    snapshot = stats.as_dict()
    assert snapshot["por_enabled"] is True
    assert snapshot["levels"], "per-level rows missing from the snapshot"
    assert snapshot["peak_rss_kb"] >= 0


def test_decompose_is_pure():
    """Workers rebuild the decomposition from the pickled spec; the two
    sides must agree on every class footprint."""
    spec = QueueChain(2, 1).complete_spec()
    first = decompose(spec)
    second = decompose(spec)
    assert [c.label for c in first.classes] == [c.label
                                               for c in second.classes]
    assert [c.writes for c in first.classes] == [c.writes
                                                 for c in second.classes]
    assert first.dep == second.dep
