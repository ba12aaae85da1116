"""Front-end parity for the one check pipeline.

Every row of :data:`ROWS` is one request, run three ways -- ``repro
check`` (:func:`repro.tools.cli.main`), the service's
:func:`~repro.service.jobs.run_check`, and the engine object directly --
which must agree on verdict, graph size and digest, per-obligation
summary lines and rendered counterexamples.  The CLI's stdout is
compared whole: it must be exactly the service document rendered as
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.checker import (CompactUnsupported, StateSpaceExplosion,
                           digest_of_graph, explore, explore_compact)
from repro.engine import (
    UNKNOWN,
    VIOLATION,
    ExplicitEngine,
    SymbolicEngine,
    choose_mode,
    resolve_request,
)
from repro.kernel.expr import Const
from repro.kernel.state import Universe
from repro.kernel.values import Domain
from repro.parser import load_module
from repro.service.jobs import CheckRequest, run_check
from repro.spec import Spec

from .test_tools_cli import COUNTER_TLA, run_cli

# three independent counters: 343 states
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
    max_states: int = 200_000
    depth: Optional[int] = None     # set = the symbolic engine
    states: Optional[int] = None


ROWS = [
    Row("counter-ok", COUNTER_TLA, "ok", ("Small",), states=3),
    Row("counter-violation", COUNTER_TLA, "violation",
        ("Small", "TooSmall"), states=3),
    Row("property-holds", COUNTER_TLA, "ok", properties=("Progress",)),
    Row("property-lasso", COUNTER_TLA, "violation", properties=("Stuck",)),
    Row("three-ok", THREE_TLA, "ok", ("XBounded",), states=343),
    Row("three-violation", THREE_TLA, "violation", ("XSmall",),
        states=343),
    Row("explosion", THREE_TLA, "explosion", ("XSmall",), max_states=100),
    Row("symbolic-violation", COUNTER_TLA, "violation", ("TooSmall",),
        depth=4),
    Row("symbolic-unknown", COUNTER_TLA, "unknown", ("Small",), depth=4),
]


def request_of(row: Row) -> CheckRequest:
    return CheckRequest(
        row.source, invariants=row.invariants, properties=row.properties,
        max_states=row.max_states,
        engine="symbolic" if row.depth else "explicit", depth=row.depth)


def cli_argv(row: Row, path: str):
    argv = ["check", path, "--max-states", str(row.max_states)]
    for name in row.invariants:
        argv += ["--invariant", name]
    for name in row.properties:
        argv += ["--property", name]
    if row.depth:
        argv += ["--engine", "symbolic", "--depth", str(row.depth)]
    return argv


def rendered(document) -> str:
    """The service's result document as ``repro check`` prints it."""
    if document["verdict"] == "explosion":
        return f"error: StateSpaceExplosion: {document['error']}\n"
    lines = []
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
        return verdict, None, None, results
    engine = ExplicitEngine(choose_mode(), max_states=row.max_states)
    try:
        with engine.run(spec, invariants, properties) as run:
            graph = run.graph
            return ("ok" if run.ok else "violation",
                    (graph.state_count, graph.edge_count,
                     graph.stutter_count),
                    digest_of_graph(graph),
                    [result for _kind, result in run.results])
    except StateSpaceExplosion:
        return "explosion", (None, None, None), None, []


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_three_front_ends_agree(row, tmp_path):
    path = tmp_path / "module.tla"
    path.write_text(row.source)
    document = run_check(request_of(row))
    assert document["verdict"] == row.verdict
    assert document["notes"] == []
    if row.states is not None:
        assert document["states"] == row.states

    code, text = run_cli(*cli_argv(row, str(path)))
    assert code == {"ok": 0, "unknown": 0, "violation": 1,
                    "explosion": 2}[row.verdict]
    assert text == rendered(document)

    verdict, size, digest, results = via_engine(row)
    assert verdict == document["verdict"]
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


def test_a_retired_por_request_reports_the_unreduced_run():
    """A request that still asks for partial-order reduction -- from an
    old client or a journal written before its removal -- is the plain
    request: the same document and the same cache identity."""
    plain = CheckRequest(THREE_TLA, invariants=("XSmall",))
    retired = CheckRequest.from_dict(dict(plain.to_dict(), por=True))
    assert retired == plain
    assert retired.fingerprint() == plain.fingerprint()
    document = run_check(retired)
    assert document["verdict"] == "violation"
    assert document["states"] == 343
    assert document == dict(run_check(plain), stats=document["stats"])


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
    """A spec the packed codec cannot represent is refused by every
    mode, and so is a mode that does not exist."""

    class Empty(Domain):
        def values(self):
            return iter(())

        def __contains__(self, value):
            return False

    # an empty domain cannot be packed: no engine explores it
    unpackable = Spec("empty", Const(True), Const(True), ("x",),
                      Universe({"x": Empty()}))
    for mode in ("compact", "serial"):
        with pytest.raises(CompactUnsupported, match="'x' has an empty"):
            ExplicitEngine(mode).check_invariant(unpackable, Const(True))
    with pytest.raises(ValueError, match="unknown explicit mode"):
        ExplicitEngine("distributed")


def test_the_engine_choice(tmp_path):
    """Compact for every fresh run; a resume continues on the engine
    that wrote the level log."""
    three = resolve_request(load_module(THREE_TLA), "Spec")[0]
    assert choose_mode() == "compact"
    full, compact = str(tmp_path / "full"), str(tmp_path / "compact")
    explore(three, checkpoint=full)
    explore_compact(three, checkpoint=compact)
    assert choose_mode(full) == "parallel"
    assert choose_mode(compact) == "compact"
