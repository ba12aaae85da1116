"""Front-end parity for the one check pipeline.

Every row of :data:`ROWS` is one request, run three ways -- ``repro
check`` (:func:`repro.tools.cli.main`), the service's
:func:`~repro.service.jobs.run_check`, and the engine object directly --
which must agree on verdict, graph size and digest, per-obligation
summary lines, rendered counterexamples and notes.  The CLI's stdout is
compared whole: it must be exactly the service document rendered as
text.

The second half pins the two defects the merge fixed: a canonical
re-exploration that blows the budget ends like the POR-off run, and
stats after a re-exploration describe one graph.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.checker import (CompactUnsupported, StateSpaceExplosion,
                           digest_of_graph)
from repro.checker.stats import ExploreStats
from repro.engine import (
    UNKNOWN,
    VIOLATION,
    ExplicitEngine,
    SymbolicEngine,
    choose_mode,
    resolve_request,
)
from repro.engine.explicit import POR_DISABLED, REEXPLORING
from repro.kernel.expr import Const
from repro.kernel.state import Universe
from repro.kernel.values import Domain
from repro.parser import load_module
from repro.service.jobs import CheckRequest, JobManager, run_check
from repro.spec import Spec

from .test_service_jobs import wait_terminal
from .test_tools_cli import COUNTER_TLA, run_cli

# three independent counters: 343 states in full, 19 under reduction
# observing x -- the smallest module where POR prunes and a violation's
# reduced trace would differ from the canonical one
THREE_TLA = """
MODULE Three
VARIABLE x \\in 0..6
VARIABLE y \\in 0..6
VARIABLE z \\in 0..6
Init == x = 0 /\\ y = 0 /\\ z = 0
A == x < 6 /\\ x' = x + 1 /\\ y' = y /\\ z' = z
B == y < 6 /\\ y' = y + 1 /\\ x' = x /\\ z' = z
C == z < 6 /\\ z' = z + 1 /\\ x' = x /\\ y' = y
Next == A \\/ B \\/ C
Spec == Init /\\ [][Next]_<<x, y, z>>
XSmall == x < 6
XBounded == x < 7
"""


@dataclass(frozen=True)
class Row:
    id: str
    source: str
    verdict: str
    invariants: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    por: bool = False
    max_states: int = 200_000
    depth: Optional[int] = None     # set = the symbolic engine
    notes: Tuple[str, ...] = ()
    states: Optional[int] = None


ROWS = [
    Row("counter-ok", COUNTER_TLA, "ok", ("Small",), states=3),
    Row("counter-violation", COUNTER_TLA, "violation",
        ("Small", "TooSmall"), states=3),
    Row("property-holds", COUNTER_TLA, "ok", properties=("Progress",)),
    Row("property-lasso", COUNTER_TLA, "violation", properties=("Stuck",)),
    Row("por-violation", THREE_TLA, "violation", ("XSmall",), por=True,
        notes=(REEXPLORING,), states=343),
    Row("por-ok", THREE_TLA, "ok", ("XBounded",), por=True, states=19),
    Row("three-ok", THREE_TLA, "ok", ("XBounded",), states=343),
    Row("three-violation", THREE_TLA, "violation", ("XSmall",),
        states=343),
    Row("explosion", THREE_TLA, "explosion", ("XSmall",), max_states=100),
    Row("por-reexploration-explosion", THREE_TLA, "explosion", ("XSmall",),
        por=True, max_states=100, notes=(REEXPLORING,)),
    Row("symbolic-violation", COUNTER_TLA, "violation", ("TooSmall",),
        depth=4),
    Row("symbolic-unknown", COUNTER_TLA, "unknown", ("Small",), depth=4),
    Row("por-with-property", COUNTER_TLA, "ok", ("Small",), ("Progress",),
        por=True, notes=(POR_DISABLED,)),
]


def request_of(row: Row) -> CheckRequest:
    return CheckRequest(
        row.source, invariants=row.invariants, properties=row.properties,
        max_states=row.max_states, por=row.por,
        engine="symbolic" if row.depth else "explicit", depth=row.depth)


def cli_argv(row: Row, path: str):
    argv = ["check", path, "--max-states", str(row.max_states)]
    for name in row.invariants:
        argv += ["--invariant", name]
    for name in row.properties:
        argv += ["--property", name]
    if row.por:
        argv.append("--por")
    if row.depth:
        argv += ["--engine", "symbolic", "--depth", str(row.depth)]
    return argv


def rendered(document) -> str:
    """The service's result document as ``repro check`` prints it."""
    lines = [f"note: {note}" for note in document["notes"]]
    if document["verdict"] == "explosion":
        lines.append(f"error: StateSpaceExplosion: {document['error']}")
        return "\n".join(lines) + "\n"
    if document.get("engine") == "symbolic":
        lines.append(f"{document['label']}: bounded symbolic check to depth "
                     f"{document['depth']} (cdcl backend)")
    else:
        lines.append(f"{document['label']}: {document['states']} states, "
                     f"{document['edges']} edges "
                     f"(+{document['stutter']} stutter)")
    for check in document["checks"]:
        lines.append(check["summary"])
        if check["counterexample"] is not None:
            lines.append(check["counterexample"]["rendered"])
    return "\n".join(lines) + "\n"


def via_engine(row: Row):
    """The row through the engine object: the same observations the
    service document holds."""
    spec, _label, invariants, properties = resolve_request(
        load_module(row.source), "Spec", row.invariants, row.properties)
    if row.depth:
        results = SymbolicEngine(depth=row.depth).check_obligations(
            spec, invariants)
        verdict = ("violation" if any(r.verdict == VIOLATION for r in results)
                   else "unknown")
        assert all(r.verdict in (VIOLATION, UNKNOWN) for r in results)
        return verdict, None, None, results, []
    engine = ExplicitEngine(
        choose_mode(spec, por=row.por, properties=bool(properties)),
        max_states=row.max_states, por=row.por)
    run = engine.run(spec, invariants, properties)
    try:
        with run:
            graph = run.graph
            return ("ok" if run.ok else "violation",
                    (graph.state_count, graph.edge_count,
                     graph.stutter_count),
                    digest_of_graph(graph),
                    [result for _kind, result in run.results], run.notes)
    except StateSpaceExplosion:
        return "explosion", (None, None, None), None, [], run.notes


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_three_front_ends_agree(row, tmp_path):
    path = tmp_path / "module.tla"
    path.write_text(row.source)
    document = run_check(request_of(row))
    assert document["verdict"] == row.verdict
    assert tuple(document["notes"]) == row.notes
    if row.states is not None:
        assert document["states"] == row.states

    code, text = run_cli(*cli_argv(row, str(path)))
    assert code == {"ok": 0, "unknown": 0, "violation": 1,
                    "explosion": 2}[row.verdict]
    assert text == rendered(document)

    verdict, size, digest, results, notes = via_engine(row)
    assert verdict == document["verdict"]
    assert list(notes) == document["notes"]
    assert [r.summary() for r in results] \
        == [check["summary"] for check in document["checks"]]
    assert [r.counterexample.render() if r.counterexample else None
            for r in results] \
        == [check["counterexample"]["rendered"]
            if check["counterexample"] else None
            for check in document["checks"]]
    if not row.depth:
        assert size == (document["states"], document["edges"],
                        document["stutter"])
        assert digest == document["graph_digest"]


def test_reduced_violation_reports_the_canonical_run():
    """POR on and off are the same document, note and stats aside."""
    plain = run_check(CheckRequest(THREE_TLA, invariants=("XSmall",)))
    reduced = run_check(CheckRequest(THREE_TLA, invariants=("XSmall",),
                                     por=True))
    for key in ("verdict", "checks", "states", "edges", "stutter",
                "graph_digest"):
        assert reduced[key] == plain[key]


class TestReexplorationBlowsTheBudget:
    """343 states in full, 19 reduced, budget 100: the reduced run fits,
    its canonical re-exploration does not."""

    ARGS = ("--invariant", "XSmall", "--max-states", "100")

    def leftovers(self, tmp_path, *flags):
        module = tmp_path / "three.tla"
        module.write_text(THREE_TLA)
        checkpoint, stats_json = tmp_path / "b.ckpt", tmp_path / "b.json"
        code, _text = run_cli("check", str(module), *self.ARGS, *flags,
                              "--checkpoint", str(checkpoint),
                              "--stats-json", str(stats_json))
        assert code == 2
        manifest = json.loads(
            (tmp_path / "b.ckpt.manifest.json").read_text())
        return manifest, json.loads(stats_json.read_text())

    def test_cli_leaves_manifest_and_stats_like_por_off(self, tmp_path):
        plain, _stats = self.leftovers(tmp_path)
        reduced, stats = self.leftovers(tmp_path, "--por")
        assert reduced["outcome"] == plain["outcome"] == "explosion"
        assert reduced["error"] == plain["error"]
        assert reduced["states"] is reduced["counterexample"] is None
        assert stats["por_enabled"] is False

    def test_service_job_ends_done_with_verdict_explosion(self, tmp_path):
        async def scenario():
            manager = JobManager(str(tmp_path / "svc"), pool_size=1)
            await manager.start()
            job, _ = manager.submit(CheckRequest(
                THREE_TLA, invariants=("XSmall",), max_states=100,
                por=True))
            await wait_terminal(job)
            again, disposition = manager.submit(job.request)
            await manager.shutdown()
            return job, disposition

        job, disposition = asyncio.run(scenario())
        assert job.state == "done"
        assert job.result["verdict"] == "explosion"
        assert disposition == "cached"


class TestStatsDescribeOneGraph:
    def test_cli_stats_json_after_reexploration(self, tmp_path):
        def stats_of(*flags):
            target = tmp_path / "stats.json"
            code, text = run_cli(
                "check", "@mutex:n=2,clock=2,broken", "--invariant",
                "MutualExclusion", "--stats", "--stats-json", str(target),
                *flags)
            assert code == 1
            return json.loads(target.read_text()), text

        plain, _text = stats_of()
        reduced, text = stats_of("--por")
        assert len(reduced["levels"]) == reduced["depth"] + 1
        assert reduced["levels"] == plain["levels"]
        assert reduced["levels_seen"] == plain["levels_seen"]
        # the reduced run survives as the reduction section only
        assert reduced["por_enabled"] is False
        assert reduced["por_reason"] == REEXPLORING
        assert reduced["por_counters"]["ample_states"] > 0
        assert "explore-reduced" in reduced["phases"]
        assert "reduction: disabled" in text and "por on" not in text

    def test_listeners_see_two_monotone_runs(self):
        """The listener seam (cancel / drain ride on it) fires during
        the re-exploration too, with the level counter restarted."""
        seen = []
        stats = ExploreStats()
        stats.add_level_listener(lambda level, row: seen.append(level))
        run_check(CheckRequest(THREE_TLA, invariants=("XSmall",), por=True),
                  stats=stats)
        restart = seen.index(0, 1)
        assert seen[:restart] == list(range(restart))
        assert seen[restart:] == list(range(19))
        assert len(stats.levels) == stats.depth + 1 == 19

    def test_a_cancel_during_the_reexploration_still_lands(self):
        class Cancelled(Exception):
            pass

        stats = ExploreStats()

        def listener(level, row):
            if stats.por_enabled is False and level == 3:
                raise Cancelled()

        stats.add_level_listener(listener)
        with pytest.raises(Cancelled):
            run_check(CheckRequest(THREE_TLA, invariants=("XSmall",),
                                   por=True), stats=stats)

    def test_service_marks_the_restart_in_the_event_stream(self, tmp_path):
        async def events_of(**options):
            manager = JobManager(str(tmp_path / "svc"), pool_size=1)
            await manager.start()
            job, _ = manager.submit(CheckRequest(
                THREE_TLA, invariants=("XSmall",), **options))
            await wait_terminal(job)
            await manager.shutdown()
            return [event for event in job.events
                    if event["event"] in ("level", "reexploring")]

        plain = asyncio.run(events_of())
        reduced = asyncio.run(events_of(por=True))
        kinds = [event["event"] for event in reduced]
        mark = kinds.index("reexploring")
        assert kinds.count("reexploring") == 1
        assert reduced[mark]["reason"] == REEXPLORING
        first, second = reduced[:mark], reduced[mark + 1:]
        assert [event["level"] for event in first] \
            == list(range(len(first)))
        # after the mark: exactly the POR-off job's level events
        keys = ("level", "frontier", "states", "edges", "stutter")
        assert [[event[key] for key in keys] for event in second] \
            == [[event[key] for key in keys] for event in plain]


def test_one_run_compiles_each_action_once(monkeypatch):
    """Three properties over a spec with two fairness conditions: the run
    compiles Init (for enumeration), Next, and each ``<A>_v`` once -- one
    premise list serves every property."""
    from repro.kernel import And, Eq, Or, Universe, Var, interval
    from repro.kernel.action import CompiledAction
    from repro.spec import Spec, strong_fairness, weak_fairness
    from repro.temporal import Eventually, StatePred

    x, xp = Var("x"), Var("x", primed=True)
    step, reset = Eq(xp, x + 1), And(Eq(x, 2), Eq(xp, 0))
    spec = Spec("cycle", Eq(x, 0), Or(step, reset), ("x",),
                Universe({"x": interval(0, 2)}),
                [weak_fairness(("x",), Or(step, reset)),
                 strong_fairness(("x",), step)])
    properties = [(f"reach{k}", Eventually(StatePred(Eq(x, k))))
                  for k in range(3)]

    compiled = []
    real_init = CompiledAction.__init__

    def counting_init(self, action):
        compiled.append(action)
        real_init(self, action)

    monkeypatch.setattr(CompiledAction, "__init__", counting_init)
    with ExplicitEngine().run(spec, [], properties) as run:
        assert run.ok and len(run.results) == 3
    assert len(compiled) == 4
    assert sum(action is spec.next_action for action in compiled) == 1


def test_compact_mode_refuses_what_it_cannot_run():
    """The compact graph has no reduction machinery: reduction that stays
    on is refused when the run is built, never a traceback from inside
    a checker; reduction that a property switches off leaves a compact
    run with the usual note."""
    spec, _label, _invariants, properties = resolve_request(
        load_module(COUNTER_TLA), "Spec", (), ("Progress",))
    with pytest.raises(ValueError, match="compact mode has no reduction"):
        ExplicitEngine("compact", por=True).run(spec)
    with ExplicitEngine("compact", por=True).run(
            spec, properties=properties) as run:
        assert run.ok and run.notes == [POR_DISABLED]
    with pytest.raises(ValueError, match="unknown explicit mode"):
        ExplicitEngine("distributed")


def test_the_engine_choice():
    """Compact unless reduction stays on; a spec that cannot be packed
    gets no other engine, and exploring it is refused."""
    three = resolve_request(load_module(THREE_TLA), "Spec")[0]
    assert choose_mode(three) == "compact"
    assert choose_mode(three, por=True) == "parallel"
    assert choose_mode(three, por=True, properties=True) == "compact"
    assert choose_mode(three, por=False) == "compact"

    class Empty(Domain):
        def values(self):
            return iter(())

        def __contains__(self, value):
            return False

    # an empty domain cannot be packed: no engine explores it
    unpackable = Spec("empty", Const(True), Const(True), ("x",),
                      Universe({"x": Empty()}))
    assert choose_mode(unpackable) == "compact"
    assert choose_mode(unpackable, properties=True) == "compact"
    for mode in ("compact", "serial"):
        with pytest.raises(CompactUnsupported, match="'x' has an empty"):
            ExplicitEngine(mode).check_invariant(unpackable, Const(True))
