"""Differential tests: the compact engine is bit-for-bit the full one.

For every bundled system (queue, arbiter, handshake, circuit), a panel
of seeded random specifications, and every worker count k in {1, 2, 4}
(plus ``REPRO_TEST_WORKERS`` from the CI matrix, if set),
``explore_compact(spec, workers=k)`` must agree with the full engine's
``explore(spec)`` on *everything observable*: decoded states under the
same node numbering, the BFS parent tree, initial nodes, edge and
stutter accounting, the ``StateSpaceExplosion`` insertion point, the
streaming :class:`~repro.checker.digest.GraphDigest` -- and the checks
built on top: invariant verdicts and byte-identical regenerated
counterexample traces, and temporal properties (premise-fair lasso
search over the CSR edges) with byte-identical lassos.  Checkpoint
kill/resume must land on the same digest and verdicts as the
uninterrupted run.

This is the same cross-checking-backends discipline as
``test_parallel_differential.py``: the full serial explorer is the
reference semantics, and any compact divergence is a bug by definition.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.checker import (
    ExploreStats,
    StateSpaceExplosion,
    check_invariant,
    check_invariant_compact,
    digest_of_graph,
    explore,
    explore_compact,
    explore_parallel,
    resume,
    resume_compact,
)
from repro.checker.checkpoint import CheckpointError
from repro.checker.liveness import (
    PremiseConstraint,
    check_temporal_implication,
)
from repro.engine import ExplicitEngine, resolve_request
from repro.kernel.expr import (
    And,
    Arith,
    Cmp,
    Const,
    Eq,
    Exists,
    Len,
    Not,
    Or,
    Var,
)
from repro.kernel.state import Universe
from repro.kernel.values import FiniteDomain
from repro.parser import load_module
from repro.spec import Spec
from repro.systems.arbiter import composed_system
from repro.systems.circuit import composed_processes
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos, v1a, v2a
from repro.systems.handshake import (
    ack,
    channel_universe,
    channel_vars,
    cinit,
    ready,
    send,
)
from repro.systems.queue import DEFAULT_MSG, complete_queue
from repro.temporal.formulas import Always, Eventually, LeadsTo

from tests.test_property_random_specs import random_action, random_universe


def handshake_system() -> Spec:
    chan = "c"
    nxt = Or(Exists("v", DEFAULT_MSG, send(Var("v"), chan)), ack(chan))
    return Spec(
        "handshake(c)",
        And(cinit(chan)),
        nxt,
        channel_vars(chan),
        channel_universe(chan, DEFAULT_MSG),
    )


SYSTEMS = [
    pytest.param(lambda: complete_queue(2), id="queue"),
    pytest.param(composed_system, id="arbiter"),
    pytest.param(handshake_system, id="handshake"),
    pytest.param(composed_processes, id="circuit"),
]

WORKER_COUNTS = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_WORKERS", "0"))
if _extra and _extra not in WORKER_COUNTS:
    WORKER_COUNTS.append(_extra)

RANDOM_SEEDS = range(20)


def random_spec(seed: int) -> Spec:
    """A seeded random spec: the generator panel of
    ``test_property_random_specs`` plus a random initial predicate
    (one or two fully pinned states, so ``initial_states`` is cheap and
    the init-node set is still exercised)."""
    rng = random.Random(seed)
    universe = random_universe(rng)
    action = random_action(rng, universe)
    states = list(universe.states())

    def pin(state) -> And:
        return And(*[Eq(Var(name), Const(state[name]))
                     for name in universe.variables])

    picks = rng.sample(states, rng.randint(1, 2))
    init_expr = pin(picks[0]) if len(picks) == 1 else Or(*map(pin, picks))
    return Spec(f"random-{seed}", init_expr, action,
                tuple(universe.variables), universe)


def assert_compact_matches_full(spec, workers: int,
                                max_states: int = 200_000):
    full_stats, compact_stats = ExploreStats(), ExploreStats()
    full = explore(spec, max_states=max_states, stats=full_stats)
    compact = explore_compact(spec, max_states=max_states, workers=workers,
                              stats=compact_stats)
    # decoded states, elementwise: same node numbering
    assert list(compact.states) == list(full.states)
    # the BFS parent tree (compact encodes "initial" as -1, full as None)
    assert compact.parent == [-1 if p is None else p for p in full.parent]
    assert compact.init_nodes == full.init_nodes
    assert compact.state_count == full.state_count
    assert compact.edge_count == full.edge_count
    assert compact.stutter_count == full.stutter_count
    # the CSR edges: every successor list, stutter loop first
    assert [list(adjacency) for adjacency in compact.succ] == full.succ
    assert compact_stats.depth == full_stats.depth
    # the transition relation, via the streaming digest
    assert compact.digest() == digest_of_graph(full)
    assert compact_stats.engine == "compact"
    assert compact_stats.fingerprint_collisions == 0
    return full, compact


class TestBundledSystems:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("make_spec", SYSTEMS)
    def test_graph_identical(self, make_spec, workers):
        assert_compact_matches_full(make_spec(), workers)

    def test_queue_violation_and_trace_identical(self):
        spec = complete_queue(2)
        full, compact = assert_compact_matches_full(spec, workers=1)
        overfull = Cmp("<=", Len(Var("q")), 1)
        res_full = check_invariant(full, overfull, name="cap")
        res_compact = check_invariant_compact(compact, overfull, name="cap")
        assert not res_full.ok and not res_compact.ok
        assert res_full.summary() == res_compact.summary()
        # the regenerated trace renders byte-identically
        assert (res_compact.counterexample.render()
                == res_full.counterexample.render())

    def test_handshake_ok_verdict_identical(self):
        spec = handshake_system()
        full, compact = assert_compact_matches_full(spec, workers=1)
        for expr, expect_ok in ((Or(ready("c"), Not(ready("c"))), True),
                                (ready("c"), False)):
            res_full = check_invariant(full, expr)
            res_compact = check_invariant_compact(compact, expr)
            assert res_full.ok is res_compact.ok is expect_ok
            if not expect_ok:
                assert (res_compact.counterexample.render()
                        == res_full.counterexample.render())

    def test_non_bool_invariant_raises_like_full(self):
        spec = complete_queue(2)
        full = explore(spec)
        compact = explore_compact(spec)
        bogus = Len(Var("q"))
        with pytest.raises(TypeError, match="returned"):
            check_invariant(full, bogus)
        with pytest.raises(TypeError, match="returned"):
            check_invariant_compact(compact, bogus)


class TestRandomSpecs:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_graph_identical_serial(self, seed):
        assert_compact_matches_full(random_spec(seed), workers=1)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_graph_identical_from_every_state(self, seed):
        """``Init == TRUE``: every state of the universe is initial, so
        the first frontier is the whole universe."""
        rng = random.Random(seed)
        universe = random_universe(rng)
        spec = Spec(f"rand{seed}", Const(True), random_action(rng, universe),
                    universe.variables, universe)
        assert_compact_matches_full(spec, workers=1)

    @pytest.mark.parametrize("workers", [w for w in WORKER_COUNTS if w > 1])
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_graph_identical_parallel(self, seed, workers):
        assert_compact_matches_full(random_spec(seed), workers=workers)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_explosion_fires_at_the_same_budget(self, seed):
        spec = random_spec(seed)
        size = explore(spec).state_count
        if size < 2:
            pytest.skip("degenerate random spec: nothing beyond init")
        budget = size - 1
        with pytest.raises(StateSpaceExplosion) as full_exc:
            explore(spec, max_states=budget)
        with pytest.raises(StateSpaceExplosion) as compact_exc:
            explore_compact(spec, max_states=budget)
        assert str(compact_exc.value) == str(full_exc.value)


def wide_spec() -> Spec:
    """Four counters over 0..3 stepping independently: 256 states with
    frontiers wide enough (>= workers*16) to push the parallel compact
    engine past its inline threshold and through the real worker pool."""
    names = ("a", "b", "c", "d")
    universe = Universe({name: FiniteDomain(range(4)) for name in names})

    def bump(name):
        conjuncts = [Eq(Var(name, primed=True),
                        Arith("%", Arith("+", Var(name), 1), 4))]
        conjuncts += [Eq(Var(other, primed=True), Var(other))
                      for other in names if other != name]
        return And(*conjuncts)

    step = Or(*[bump(name) for name in names])
    init = And(*[Eq(Var(name), Const(0)) for name in names])
    return Spec("wide", init, step, names, universe)


class TestParallelPool:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_expansion_matches_full(self, workers):
        assert_compact_matches_full(wide_spec(), workers=workers)


class _StopAtLevel(Exception):
    pass


def _explore_killed_then_resumed(spec, path, kill_after: int,
                                 workers: int = 1,
                                 resume_workers: int = 1):
    """Kill a checkpointing compact run at a level boundary, then resume
    it; returns the resumed graph."""
    stats = ExploreStats()

    def bomb(level, row):
        if level + 1 >= kill_after:
            raise _StopAtLevel()

    stats.add_level_listener(bomb)
    with pytest.raises(_StopAtLevel):
        explore_compact(spec, workers=workers, stats=stats,
                        checkpoint=str(path), checkpoint_every=1)
    return resume_compact(str(path), spec, workers=resume_workers)


class TestCheckpointResume:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_kill_and_resume_reaches_identical_digest(self, tmp_path,
                                                      workers):
        spec = complete_queue(2)
        reference = explore_compact(spec)
        resumed = _explore_killed_then_resumed(
            spec, tmp_path / "c.ckpt", kill_after=2, workers=1,
            resume_workers=workers)
        assert resumed.digest() == reference.digest()
        assert resumed.packed == reference.packed
        assert resumed.parent == reference.parent
        assert resumed.init_nodes == reference.init_nodes
        assert resumed.edge_count == reference.edge_count

    def test_parallel_run_killed_then_resumed(self, tmp_path):
        spec = wide_spec()
        reference = explore_compact(spec)
        resumed = _explore_killed_then_resumed(
            spec, tmp_path / "w.ckpt", kill_after=4, workers=2,
            resume_workers=2)
        assert resumed.digest() == reference.digest()

    def test_resumed_graph_still_checks_and_traces(self, tmp_path):
        spec = complete_queue(2)
        resumed = _explore_killed_then_resumed(
            spec, tmp_path / "t.ckpt", kill_after=2)
        full = explore(spec)
        overfull = Cmp("<=", Len(Var("q")), 1)
        res_full = check_invariant(full, overfull)
        res_resumed = check_invariant_compact(resumed, overfull)
        assert (res_resumed.counterexample.render()
                == res_full.counterexample.render())

    def test_compact_refuses_full_checkpoint(self, tmp_path):
        spec = complete_queue(2)
        path = tmp_path / "full.ckpt"
        explore_parallel(spec, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="full-state engine"):
            resume_compact(str(path), spec)

    def test_full_refuses_compact_checkpoint(self, tmp_path):
        spec = complete_queue(2)
        path = tmp_path / "compact.ckpt"
        explore_compact(spec, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="compact engine"):
            resume(str(path), spec)

    def test_resume_rejects_layout_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        explore_compact(complete_queue(2), checkpoint=str(path))
        with pytest.raises(CheckpointError, match="layout"):
            resume_compact(str(path), composed_processes())


# ---------------------------------------------------------------------------
# temporal properties: lasso search on packed rows and CSR edges
# ---------------------------------------------------------------------------

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
Progress == (x = 0) ~> (x = 2)
Stuck == (x = 0) ~> (x = 3)
"""


def counter_properties():
    spec, _label, _invariants, properties = resolve_request(
        load_module(COUNTER_TLA), "Spec", (), ("Progress", "Stuck"))
    return spec, properties


def paxos_properties(**options):
    def make():
        paxos = Paxos(2, 2, 2, **options)
        return paxos.complete_spec(), [("EventuallyDecides",
                                        paxos.eventually_decides())]
    return make


def mutex_properties(clock):
    def make():
        mutex = LamportMutex(2, clock)
        return mutex.complete_spec(), [("SomeoneEnters",
                                        mutex.someone_enters()),
                                       ("Progress1", mutex.progress(1))]
    return make


PROPERTY_SUITES = [
    pytest.param(counter_properties, id="counter"),
    pytest.param(paxos_properties(), id="paxos-2-2-2"),
    pytest.param(paxos_properties(droppable=(v1a(1), v2a(0, 0))),
                 id="paxos-2-2-2-lossy"),
    pytest.param(mutex_properties(2), id="mutex-2-2"),
    pytest.param(mutex_properties(3), id="mutex-2-3"),
]


def property_run(mode, spec, properties, workers=1, **options):
    """Verdict, rendered counterexample and stats of every property, plus
    the graph digest, through the check pipeline in *mode*."""
    engine = ExplicitEngine(mode, workers=workers, **options)
    with engine.run(spec, properties=properties) as run:
        return ([(result.name, result.ok, result.stats,
                  result.counterexample.render()
                  if result.counterexample is not None else None)
                 for _kind, result in run.results],
                digest_of_graph(run.graph))


class TestProperties:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make", PROPERTY_SUITES)
    def test_compact_agrees_with_serial(self, make, workers):
        spec, properties = make()
        reference = property_run("serial", spec, properties)
        assert property_run("compact", spec, properties,
                            workers=workers) == reference

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_property_agrees(self, seed):
        """A random state predicate under ``<>``, ``[]<>`` or ``~>``,
        checked under weak fairness of the whole next-state action."""
        spec = random_spec(seed)
        rng = random.Random(f"property/{seed}")

        def pred():
            name = rng.choice(spec.universe.variables)
            value = rng.choice(list(spec.universe.domain(name).values()))
            return Eq(Var(name), Const(value))

        formula = rng.choice([lambda: Eventually(pred()),
                              lambda: Always(Eventually(pred())),
                              lambda: LeadsTo(pred(), pred())])()
        premises = [PremiseConstraint("WF", spec.universe.variables,
                                      spec.next_action)]
        outcomes = []
        for graph in (explore(spec), explore_compact(spec),
                      explore_compact(spec, workers=2)):
            result = check_temporal_implication(
                graph, formula, premises=premises, name="p")
            outcomes.append((result.ok, result.stats,
                             result.counterexample.render()
                             if result.counterexample is not None
                             else None))
        assert outcomes[1] == outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_property_run_resumes_to_the_same_verdicts(
            self, tmp_path, workers):
        spec, properties = paxos_properties(
            droppable=(v1a(1), v2a(0, 0)))()
        reference = property_run("compact", spec, properties)
        path = str(tmp_path / "p.ckpt")
        stats = ExploreStats()

        def bomb(level, row):
            if level >= 3:
                raise _StopAtLevel()

        stats.add_level_listener(bomb)
        with pytest.raises(_StopAtLevel):
            with ExplicitEngine("compact", workers=workers,
                                checkpoint=path).run(
                    spec, properties=properties, stats=stats):
                pass
        resumed = property_run("compact", spec, properties,
                               workers=workers, checkpoint=path,
                               resume=True)
        assert resumed == reference
