"""The paper's evaluation, as tier-1 tests: Figures 1 and 6-9, the
Propositions, the two ablations and the queue-chain extension (DESIGN.md
§3 maps every row to its test; Figure 2's table and the operator-level
propositions have tests of their own).

Every exact count the evaluation reports is rendered by
``test_exact_counts_match_golden`` into ``goldens/paper_evaluation.txt``
and Figure 9's certificate into ``goldens/fig9_certificate.txt``; run
``pytest --update-goldens`` to accept a deliberate change.  Each
certificate and state graph is built once, by a module-scoped fixture,
on the compact engine that ``repro check`` runs.
"""

import pathlib
import re

import pytest

from repro.checker import (
    check_invariant_compact,
    check_safety_refinement,
    check_temporal_implication,
    explore_compact,
    premises_of_spec,
)
from repro.core import (
    AsLongAs,
    CompositionTheorem,
    Guarantees,
    behavior_count,
    brute_force_implication,
    validate_proposition1,
    validate_proposition3,
)
from repro.kernel import (
    BIT, Cmp, Eq, FiniteDomain, Len, Not, Or, Universe, Var, all_lassos,
)
from repro.kernel.action import unchanged
from repro.spec import Spec, weak_fairness
from repro.systems import circuit
from repro.systems.handshake import pending, ready
from repro.systems.queue import DoubleQueue, Queue, QueueChain, complete_queue
from repro.temporal import (
    ActionBox, EvalContext, LeadsTo, StatePred, TAnd, TImplies,
)

# -- shared fixtures: each graph and certificate is built once -------------


@pytest.fixture(scope="module")
def dq1():
    return DoubleQueue(1)


@pytest.fixture(scope="module")
def dq2():
    return DoubleQueue(2)


@pytest.fixture(scope="module")
def fig9(dq1, dq2):
    """Figure 9's certificate for N = 1 and N = 2."""
    return {1: dq1.composition_theorem().verify(),
            2: dq2.composition_theorem().verify()}


@pytest.fixture(scope="module")
def formula3(dq1):
    """Formula (3): Figure 9's implication without G (§A.5)."""
    return CompositionTheorem(
        [dq1.ag_q1(), dq1.ag_q2()], dq1.ag_goal(), disjoint=None,
        mapping=dq1.mapping, name="formula (3)").verify()


@pytest.fixture(scope="module")
def chains():
    """k-queue chains of 1-queues, with their certificates."""
    return {k: (chain, chain.composition_theorem().verify())
            for k, chain in ((k, QueueChain(k, 1)) for k in (2, 3))}


@pytest.fixture(scope="module")
def icq():
    """Figure 6's complete queue, keyed by (N, |Msg|)."""
    return {(n, msg): explore_compact(
                complete_queue(n, FiniteDomain(list(range(msg)))))
            for n, msg in ((1, 2), (2, 2), (3, 2), (1, 3))}


@pytest.fixture(scope="module")
def cdq(dq1, dq2):
    """Figure 8's double queue CDQ, keyed by N."""
    return {1: explore_compact(dq1.cdq_spec()),
            2: explore_compact(dq2.cdq_spec())}


@pytest.fixture(scope="module")
def fig1_direct():
    """Figure 1's safety implication over every lasso of the open
    universe (stem ≤ 2, loop ≤ 2): the direct semantic route."""
    ag_c, ag_d = circuit.safety_agspecs()
    return brute_force_implication(
        [ag_c.formula(), ag_d.formula()], circuit.safety_goal().formula(),
        circuit.wire_universe(), max_stem=2, max_loop=2)


# the two-wire universe of the proposition validators: E says e stays 0,
# M says m stays 0
e, m = Var("e"), Var("m")
EM = Universe({"e": BIT, "m": BIT})
E = TAnd(StatePred(Eq(e, 0)), ActionBox(Eq(e.prime(), 0), ("e",)))
M = TAnd(StatePred(Eq(m, 0)), ActionBox(Eq(m.prime(), 0), ("m",)))


def em_lassos(max_stem, max_loop):
    return list(all_lassos(list(EM.states()), max_stem, max_loop))


@pytest.fixture(scope="module")
def propositions():
    """Each validator's (behaviours checked, problems found)."""
    prop1_spec = Spec("e0", Eq(e, 0), Eq(e.prime(), 0), ("e",),
                      Universe({"e": BIT}),
                      [weak_fairness(("e",), Eq(e.prime(), 0))])
    # R: m starts at 0 and moves only once e has left 0
    rely = TAnd(StatePred(Eq(m, 0)),
                ActionBox(Or(unchanged(("m",)), Not(Eq(e, 0))), ("m",)))
    small, wide_stem = em_lassos(1, 2), em_lassos(2, 1)
    return {
        "PROP1": (len(small), validate_proposition1(prop1_spec, small)),
        "PROP3": (len(wide_stem), validate_proposition3(
            E, M, rely, ("e", "m"), wide_stem, EM)),
    }


# -- Figure 1 ---------------------------------------------------------------


class TestFig1:
    def test_safety_composition_theorem_and_brute_force_agree(
            self, fig1_direct):
        ag_c, ag_d = circuit.safety_agspecs()
        cert = CompositionTheorem([ag_c, ag_d], circuit.safety_goal()).verify()
        assert cert.ok
        assert fig1_direct.ok

    def test_liveness_counterexample_is_the_papers(self):
        p1, p2 = circuit.liveness_premises()
        result = brute_force_implication(
            [p1, p2], circuit.liveness_goal_formula(),
            circuit.wire_universe(), max_stem=1, max_loop=1)
        assert not result.ok
        assert all(s["c"] == 0 and s["d"] == 0
                   for s in result.counterexample.trace.states)


# -- Figures 3-6: the complete queue ---------------------------------------


def test_fig6_complete_queue(icq):
    """|q| ≤ N, o.val changes only while o is ready, and under WF a
    nonempty queue facing a ready o eventually sends, for N = 1, 2."""
    for n in (1, 2):
        graph = icq[n, 2]
        assert check_invariant_compact(
            graph, Queue(n).capacity_invariant()).ok
        assert check_temporal_implication(
            graph, ActionBox(ready("o"), ("o.val",)), premises=[]).ok
        progress = LeadsTo(
            StatePred(Cmp(">", Len(Var("q")), 0) & ready("o")),
            StatePred(pending("o")))
        assert check_temporal_implication(
            graph, progress, premises=premises_of_spec(complete_queue(n))).ok


# -- Figures 7-9: the double queue -----------------------------------------


class TestFig9:
    def test_full_composition_proof(self, fig9):
        cert = fig9[1]
        assert cert.ok, cert.render()
        # the certificate mirrors Figure 9: closures, H1 per queue, 2a
        # with Propositions 3+4, 2b
        by_oid = {ob.oid: ob for ob in cert.obligations}
        assert list(by_oid) == ["0", "1[1]", "1[2]", "2a", "2b"]
        assert "Proposition 2" in [r.proposition for r in by_oid["0"].rules]
        applied = [rule.proposition for rule in by_oid["2a"].rules]
        assert "Proposition 3" in applied
        assert "Proposition 4" in applied

    def test_without_g_every_model_checked_hypothesis_fails(self, formula3):
        assert not formula3.ok
        failed = formula3.failed_obligations()
        assert {"1[1]", "1[2]"} <= {ob.oid for ob in failed}
        assert failed[0].result.counterexample is not None

    def test_a4_refinement(self, dq1, dq2, cdq):
        """CDQ ⇒ CQ[dbl] through q ↦ q2 ∘ buffer(z) ∘ q1, safety and
        liveness (§A.4, Figures 7-8), for N = 1, 2."""
        for dq, graph in ((dq1, cdq[1]), (dq2, cdq[2])):
            target = dq.icq_dbl()
            assert check_safety_refinement(graph, target, dq.mapping).ok
            assert check_temporal_implication(
                graph, target.liveness_formula(), mapping=dq.mapping,
                target_universe=target.universe,
                premises=premises_of_spec(dq.cdq_spec())).ok

    def test_certificate_renders_like_figure9(self, fig9, golden):
        text = fig9[1].render()
        assert "Q.E.D." in text
        assert "QE[1]" in text and "QE[2]" in text
        assert "QM[dbl]" in text
        assert "Proposition 4" in text
        golden.check("fig9_certificate.txt", text)


class TestScaleUp:
    def test_complete_queue_grows_with_n(self, icq):
        assert icq[1, 2].state_count < icq[2, 2].state_count \
            < icq[3, 2].state_count

    def test_composition_proof_n2(self, fig9):
        """The theorem route stays feasible at N=2 (the direct semantic
        check over the 11-variable behavior universe would be
        astronomically large; see test_direct_route_vs_theorem_route)."""
        assert fig9[2].ok


# -- Propositions 1 and 3 --------------------------------------------------


def test_propositions_validated_exhaustively(propositions):
    """No behaviour of the two-wire universe contradicts Propositions 1
    or 3 (lasso bounds as in the golden; Proposition 4 and §4.2's
    identity are validated in test_core_closure_props.py)."""
    for name, (count, problems) in propositions.items():
        assert count > 0 and problems == [], (name, problems)


# -- ablations and the extension -------------------------------------------


def test_direct_route_vs_theorem_route(fig1_direct, fig9, dq1):
    """ABL-DIRECT: the direct semantic route enumerates every lasso of
    the open universe -- feasible for Figure 1, hopeless for the queue,
    whose certificate explores a few thousand states."""
    universe = circuit.wire_universe()
    assert fig1_direct.stats["behaviors"] == behavior_count(universe, 2, 2)
    ag_c, ag_d = circuit.safety_agspecs()
    assert brute_force_implication(
        [ag_c.formula(), ag_d.formula()], circuit.safety_goal().formula(),
        universe, max_stem=1, max_loop=1).ok
    assert fig9[1].ok
    assert behavior_count(dq1.universe, 2, 2) > 10**9 \
        > fig9[1].total_states_explored()


def test_queue_chains_compose(chains):
    """EXT-CHAIN: the theorem closes the k-component circular argument;
    the chain of k 1-queues is a (2k-1)-queue."""
    for k, (chain, cert) in chains.items():
        assert cert.ok, cert.render()
        assert chain.capacity == 2 * k - 1


def test_only_guarantees_composes_circularly():
    """ABL-OPS: with ⇒ or −▷ as the A/G connective Figure 1's circular
    safety rule is refuted; with ⊳ it holds; and ⊳ ⊆ −▷ ⊆ ⇒."""
    universe = circuit.wire_universe()
    m0c = circuit.always_zero("c").formula()
    m0d = circuit.always_zero("d").formula()
    goal = TAnd(m0c, m0d)

    def circular(connective, bound):
        return brute_force_implication(
            [connective(m0d, m0c), connective(m0c, m0d)], goal, universe,
            max_stem=bound, max_loop=bound)

    assert not circular(TImplies, 1).ok
    as_long_as = circular(AsLongAs, 1)
    assert not as_long_as.ok
    # −▷ falls to a step that breaks both wires at once
    assert any(s["c"] == 1 and s["d"] == 1
               for s in as_long_as.counterexample.trace.states)
    assert circular(Guarantees, 2).ok
    for behavior in all_lassos(list(universe.states()), 1, 2):
        ctx = EvalContext(behavior, universe)
        g = ctx.eval(Guarantees(m0d, m0c), 0)
        w = ctx.eval(AsLongAs(m0d, m0c), 0)
        i = (not ctx.eval(m0d, 0)) or ctx.eval(m0c, 0)
        assert (not g or w) and (not w or i)


# -- the exact counts ---------------------------------------------------------


def test_exact_counts_match_golden(icq, cdq, dq1, dq2, fig9, formula3,
                                   fig1_direct, chains, propositions, golden):
    wires = circuit.wire_universe()
    rows = [(f"FIG3-6 ICQ states, N={n}, |Msg|={msg}", graph.state_count)
            for (n, msg), graph in icq.items()]
    rows += [(f"FIG7-8 CDQ states, N={n}", cdq[n].state_count)
             for n in (1, 2)]
    rows += [(f"FIG7-8 CQ[dbl] states, N={n}",
              explore_compact(dq.icq_dbl()).state_count)
             for n, dq in ((1, dq1), (2, dq2))]
    rows += [(f"FIG9 certificate, N={n}",
              f"{'PROVED' if cert.ok else 'FAILED'}, "
              f"{len(cert.obligations)} obligations, "
              f"{cert.total_states_explored()} states")
             for n, cert in fig9.items()]
    rows.append(("FIG9 formula (3) failed obligations",
                 ", ".join(ob.oid for ob in formula3.failed_obligations())))
    rows.append(("FIG1-S direct route behaviours, stem<=2, loop<=2",
                 fig1_direct.stats["behaviors"]))
    rows += [(f"ABL-DIRECT Fig. 1 lassos, stem<={b}, loop<={b}",
              behavior_count(wires, b, b)) for b in (1, 2, 3)]
    rows.append(("ABL-DIRECT DoubleQueue(1) universe states",
                 dq1.universe.state_count()))
    rows.append(("ABL-DIRECT DoubleQueue(1) lassos, stem<=2, loop<=2",
                 behavior_count(dq1.universe, 2, 2)))
    rows += [(f"EXT-CHAIN k={k}, N=1 states explored",
              cert.total_states_explored())
             for k, (_chain, cert) in chains.items()]
    rows += [(f"{name} behaviours validated", propositions[name][0])
             for name in ("PROP1", "PROP3")]
    golden.check("paper_evaluation.txt",
                 "".join(f"{label}: {value}\n" for label, value in rows))


# -- DESIGN.md §3 ------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_design_index_names_tier1_tests(request):
    """Every row of DESIGN.md's per-experiment index names, in its last
    column, a test that tier-1 collects: ``tests/<file>.py::<name>``
    with ``<name>`` a test function or ``Class::method``."""
    text = (REPO / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines()
            if line.startswith("|") and not line.startswith("|---")]
    header, rows = rows[0], rows[1:]
    assert header.rstrip(" |").endswith("Tier-1 test")
    assert rows
    testpaths = request.config.getini("testpaths")
    for row in rows:
        cell = row.rstrip(" |").rsplit("|", 1)[1].strip()
        match = re.fullmatch(r"`(tests/test_\w+\.py)::(\w+(?:::\w+)?)`", cell)
        assert match, f"{row.split('|')[1].strip()}: {cell!r}"
        path, name = match.groups()
        assert path.split("/", 1)[0] in testpaths, cell
        assert (REPO / path).is_file(), cell
        module = __import__(path[:-3].replace("/", "."), fromlist=["_"])
        *classes, function = name.split("::")
        owner = module
        for class_name in classes:
            assert class_name.startswith("Test"), cell
            owner = getattr(owner, class_name, None)
            assert isinstance(owner, type), cell
        assert function.startswith("test"), cell
        assert callable(getattr(owner, function, None)), cell
