"""The Composition Theorem's shared exploration, diffed against two.

``CompositionTheorem.verify`` explores ``C(E) ∧ ⋀ C(M_j)`` once and
decides hypothesis 2b on that graph with the fairness of ``E ∧ ⋀ M_j``
as premises.  The reference here is the long way round: build
``E ∧ ⋀ M_j`` from the theorem's public parts, explore it independently,
and run 2b on that graph.  Certificates, traces and graph digests must be
indistinguishable, and one small instance is also held against the
brute-force lasso semantics, which shares no exploration code at all.
"""

import pytest

import repro.checker.liveness as liveness_module
import repro.checker.refinement as refinement_module
import repro.core.composition as composition_module
from repro.checker import check_temporal_implication, explore, explore_compact
from repro.checker.digest import digest_of_graph
from repro.checker.liveness import premises_of_spec
from repro.core import (
    AGSpec,
    CompositionTheorem,
    brute_force_implication,
)
from repro.core.certificate import Certificate, Obligation
from repro.kernel import BIT, And, Eq, Or, Universe, Var
from repro.spec import Component, conjoin
from repro.systems import arbiter, circuit
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import DoubleQueue


def _rogue_arbiter() -> CompositionTheorem:
    """The arbiter with a client that raises its request while granted:
    a certificate that fails in hypothesis 1."""
    req1 = Var("req1")
    rogue_raise = And(Eq(req1, 0), Eq(req1.prime(), 1),
                      Eq(Var("grant1").prime(), Var("grant1")))
    rogue = Component(
        "RogueClient", outputs=("req1",), internals=(), inputs=("grant1",),
        init=Eq(req1, 0), next_action=Or(rogue_raise, arbiter.client_lower(1)),
        universe=Universe({"req1": BIT, "grant1": BIT}))
    ag_arbiter, _, ag_client2 = arbiter.ag_specs()
    ag_rogue = AGSpec("rogue", arbiter.grant_protocol_spec(1), rogue)
    return CompositionTheorem([ag_arbiter, ag_rogue, ag_client2],
                              arbiter.mutex_goal())


THEOREMS = {
    "doublequeue-2": lambda: DoubleQueue(2).composition_theorem(),
    "mutex-2-3": lambda: LamportMutex(2, 3).composition_theorem(),
    "mutex-2-2-broken":
        lambda: LamportMutex(2, 2, broken=True).composition_theorem(),
    "paxos-2-2-2": lambda: Paxos(2, 2, 2).composition_theorem(),
    "paxos-2-2-2-broken":
        lambda: Paxos(2, 2, 2, broken=True).composition_theorem(),
    "circuit": lambda: CompositionTheorem(
        list(circuit.safety_agspecs()), circuit.safety_goal()),
    "arbiter": lambda: CompositionTheorem(
        list(arbiter.ag_specs()), arbiter.mutex_goal()),
    "arbiter-rogue": _rogue_arbiter,
}


@pytest.fixture
def explored(monkeypatch):
    """Every graph a certificate explores, in call order: the compact
    product ``verify`` explores and any the refinement and liveness
    checkers explore from a ``Spec``."""
    graphs = []

    def recording(engine):
        def run(*args, **kwargs):
            graphs.append(engine(*args, **kwargs))
            return graphs[-1]
        return run

    for module in (composition_module, liveness_module, refinement_module):
        monkeypatch.setattr(module, "explore_compact",
                            recording(explore_compact))
    return graphs


def _full_product(theorem: CompositionTheorem):
    """``E ∧ ⋀ M_j`` from the theorem's public parts."""
    goal = theorem.goal
    specs = [] if goal.assumption is None else [goal.assumption]
    specs.extend(ag.guarantee_spec for ag in theorem.all_parts)
    return conjoin(specs, name="E ∧ ⋀ M_j")


def _trace(result):
    cex = result.counterexample
    if cex is None:
        return None
    trace = cex.trace
    return (type(trace).__name__, list(trace.states),
            getattr(trace, "loop_start", None), cex.reason)


@pytest.mark.parametrize("name", sorted(THEOREMS))
def test_shared_graph_matches_two_explorations(name, explored):
    theorem = THEOREMS[name]()
    cert = theorem.verify()
    assert len(explored) == 1, "verify() explores exactly once"
    shared, = explored
    assert cert.obligations[-1].oid == "2b"

    full = _full_product(theorem)
    independent = explore(full, max_states=theorem.max_states)
    assert digest_of_graph(independent) == digest_of_graph(shared)
    goal_spec = theorem.goal.guarantee_spec
    old_2b = check_temporal_implication(
        independent, goal_spec.formula(), mapping=theorem.mapping,
        target_universe=goal_spec.universe,
        premises=premises_of_spec(full),
        name=f"E ∧ ⋀ M_j ⇒ {goal_spec.name}")

    reference = Certificate(cert.title, cert.conclusion)
    for obligation in cert.obligations[:-1]:
        reference.add(obligation)
    reference.add(Obligation("2b", "E ∧ ⋀ M_j ⇒ M", result=old_2b))

    new_2b = cert.obligations[-1].result
    assert new_2b.ok == old_2b.ok
    assert new_2b.stats == old_2b.stats
    assert _trace(new_2b) == _trace(old_2b)
    assert cert.ok == reference.ok
    assert ([ob.oid for ob in cert.failed_obligations()]
            == [ob.oid for ob in reference.failed_obligations()])
    assert cert.render() == reference.render()


def test_impl_spec_route_agrees_on_doublequeue(explored):
    """The literal old call -- hand 2b the product *spec* and let it
    explore and derive its own premises -- gives the same 2b result."""
    theorem = DoubleQueue(2).composition_theorem()
    new_2b = theorem.verify().obligations[-1].result
    goal_spec = theorem.goal.guarantee_spec
    old_2b = check_temporal_implication(
        _full_product(theorem), goal_spec.formula(),
        mapping=theorem.mapping, target_universe=goal_spec.universe,
        name=new_2b.name, max_states=theorem.max_states)
    assert len(explored) == 2  # one for verify(), one for the old route
    assert digest_of_graph(explored[0]) == digest_of_graph(explored[1])
    assert (new_2b.ok, new_2b.stats, new_2b.summary()) == \
        (old_2b.ok, old_2b.stats, old_2b.summary())


def test_circuit_certificate_agrees_with_brute_force_semantics():
    """The two-component circuit of the package docstring: the shared
    graph's verdict is the verdict of quantifying over every lasso of
    the open universe."""
    theorem = THEOREMS["circuit"]()
    brute = brute_force_implication(
        [], theorem.conclusion_formula(), circuit.wire_universe())
    assert theorem.verify().ok and brute.ok
