"""Unit tests for the Figure 1 circuit and the arbiter example system."""


from repro.checker import (
    check_invariant,
    check_temporal_implication,
    explore,
)
from repro.core import Guarantees, brute_force_implication, compose
from repro.kernel import And, Eq, Var
from repro.systems import arbiter, circuit
from repro.temporal import holds

from tests.conftest import lasso


class TestCircuitSafety:
    def test_always_zero_spec(self):
        spec = circuit.always_zero("c")
        good = lasso([{"c": 0}], 0)
        bad = lasso([{"c": 0}, {"c": 1}], 1)
        assert holds(spec.formula(), good, spec.universe)
        assert not holds(spec.formula(), bad, spec.universe)

    def test_processes_satisfy_ag_specs(self):
        ag_c, _ = circuit.safety_agspecs()
        result = brute_force_implication(
            [circuit.pi_c().formula()], ag_c.formula(),
            circuit.wire_universe())
        assert result.ok

    def test_composed_processes_stay_zero(self):
        graph = explore(circuit.composed_processes())
        assert graph.state_count == 1
        result = check_invariant(
            graph, And(Eq(Var("c"), 0), Eq(Var("d"), 0)))
        assert result.ok


class TestCircuitLiveness:
    def test_composed_processes_violate_liveness(self):
        result = check_temporal_implication(
            circuit.composed_processes(), circuit.liveness_goal_formula())
        assert not result.ok

    def test_process_fails_literal_liveness_ag(self):
        """With assumption literally <>(d=1), Pi_c may miss the flash of 1
        (see the module docstring's note)."""
        result = brute_force_implication(
            [circuit.pi_c().formula()],
            Guarantees(circuit.eventually_one("d"), circuit.eventually_one("c")),
            circuit.wire_universe(), max_stem=2, max_loop=1)
        assert not result.ok

    def test_process_meets_strengthened_liveness_ag(self):
        result = brute_force_implication(
            [circuit.pi_c().formula()],
            Guarantees(circuit.eventually_stays_one("d"),
                       circuit.eventually_one("c")),
            circuit.wire_universe(), max_stem=2, max_loop=2)
        assert result.ok


class TestArbiterComposition:
    def test_mutex_by_composition_theorem(self):
        cert = compose(list(arbiter.ag_specs()), arbiter.mutex_goal())
        assert cert.ok

    def test_mutex_invariant_on_composed_system(self):
        graph = explore(arbiter.composed_system())
        g1, g2 = Var("grant1"), Var("grant2")
        from repro.kernel import Not

        result = check_invariant(graph, Not(And(Eq(g1, 1), Eq(g2, 1))))
        assert result.ok

    def test_components_validate(self):
        for comp in (arbiter.arbiter_component(), arbiter.client_component(1),
                     arbiter.client_component(2)):
            assert comp.validate_interleaving() == []
            assert comp.spec.validate_fairness_subactions() == []

    def test_broken_client_breaks_hypothesis1(self):
        """A client that raises its request while granted violates the
        request protocol; the theorem's hypothesis 1 must catch it."""
        from repro.core import AGSpec
        from repro.kernel import BIT, Or, Universe
        from repro.spec import Component

        req1 = Var("req1")
        rogue_raise = And(Eq(req1, 0), Eq(req1.prime(), 1),
                          Eq(Var("grant1").prime(), Var("grant1")))
        rogue = Component(
            "RogueClient", outputs=("req1",), internals=(),
            inputs=("grant1",),
            init=Eq(req1, 0), next_action=Or(rogue_raise, arbiter.client_lower(1)),
            universe=Universe({"req1": BIT, "grant1": BIT}))
        _, _, ag_client2 = arbiter.ag_specs()
        ag_arbiter = arbiter.ag_specs()[0]
        ag_rogue = AGSpec("rogue", arbiter.grant_protocol_spec(1), rogue)
        cert = compose([ag_arbiter, ag_rogue, ag_client2],
                       arbiter.mutex_goal())
        assert not cert.ok
        failed = {ob.oid for ob in cert.failed_obligations()}
        assert any(oid.startswith("1[") for oid in failed)


class TestArbiterLiveness:
    def test_no_starvation_with_sf(self):
        system = arbiter.composed_system(strong=True)
        for j in (1, 2):
            assert check_temporal_implication(
                system, arbiter.starvation_property(j)).ok

    def test_starvation_with_wf_only(self):
        system = arbiter.composed_system(strong=False)
        result = check_temporal_implication(
            system, arbiter.starvation_property(1))
        assert not result.ok
        # the lasso really is a starvation scenario: req1 stays up,
        # grant1 stays down
        trace = result.counterexample.trace
        loop_states = [trace.states[p] for p in trace.loop_positions()]
        assert all(s["grant1"] == 0 for s in loop_states)
        assert any(s["req1"] == 1 for s in loop_states)

    def test_grant_eventually_revoked(self):
        from repro.temporal import LeadsTo, StatePred

        system = arbiter.composed_system()
        result = check_temporal_implication(
            system,
            LeadsTo(StatePred(Eq(Var("grant1"), 1)),
                    StatePred(Eq(Var("grant1"), 0))))
        assert result.ok
