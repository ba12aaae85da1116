"""Unit tests for the queue systems of the appendix (Figures 3-9)."""

import pytest

from repro.checker import (
    check_invariant,
    check_safety_refinement,
    check_temporal_implication,
    explore,
    premises_of_spec,
)
from repro.kernel import Cmp, FiniteDomain, Len, State, Var
from repro.systems.handshake import pending, ready
from repro.systems.queue import (
    DoubleQueue,
    Queue,
    QueueEnvironment,
    complete_queue,
    complete_queue_conjunction,
    cq_formula,
)
from repro.temporal import Hide, LeadsTo, StatePred, holds

MSG = FiniteDomain([0, 1])


def edge_set(graph):
    return {
        (graph.states[s], graph.states[d])
        for s in range(graph.state_count)
        for d in graph.succ[s]
    }


class TestQueueComponent:
    def test_interface_partition(self):
        q = Queue(2)
        assert q.outputs == ("i.ack", "o.sig", "o.val")
        assert q.inputs == ("i.sig", "i.val", "o.ack")
        assert q.sub == ("i.ack", "o.sig", "o.val", "q")

    def test_component_validates(self):
        q = Queue(1)
        assert q.component.validate_interleaving() == []
        assert q.spec.validate_fairness_subactions() == []

    def test_formula_hides_buffer(self):
        assert isinstance(Queue(1).formula(), Hide)

    def test_enq_appends(self):
        from repro.kernel import successors

        q = Queue(2)
        state = State({"i.sig": 1, "i.ack": 0, "i.val": 1,
                       "o.sig": 0, "o.ack": 0, "o.val": 0, "q": ()})
        result = list(successors(q.enq, state, q.universe))
        assert len(result) == 1
        assert result[0]["q"] == (1,)
        assert result[0]["i.ack"] == 1

    def test_enq_blocked_when_full(self):
        from repro.kernel import successors

        q = Queue(1)
        state = State({"i.sig": 1, "i.ack": 0, "i.val": 1,
                       "o.sig": 0, "o.ack": 0, "o.val": 0, "q": (0,)})
        assert list(successors(q.enq, state, q.universe)) == []

    def test_deq_sends_head(self):
        from repro.kernel import successors

        q = Queue(2)
        state = State({"i.sig": 0, "i.ack": 0, "i.val": 0,
                       "o.sig": 0, "o.ack": 0, "o.val": 0, "q": (1, 0)})
        result = list(successors(q.deq, state, q.universe))
        assert len(result) == 1
        assert result[0]["o.val"] == 1
        assert result[0]["q"] == (0,)
        assert result[0]["o.sig"] == 1

    def test_deq_blocked_when_unacked(self):
        from repro.kernel import successors

        q = Queue(2)
        state = State({"i.sig": 0, "i.ack": 0, "i.val": 0,
                       "o.sig": 1, "o.ack": 0, "o.val": 0, "q": (1,)})
        assert list(successors(q.deq, state, q.universe)) == []

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Queue(0)

    def test_renamed_instances(self):
        """The paper's F[1] = F[z/o, q1/q] by construction."""
        q1 = Queue(1, inp="i", out="z", qvar="q1")
        assert q1.outputs == ("i.ack", "z.sig", "z.val")
        assert "q1" in q1.universe


class TestEnvironment:
    def test_interface(self):
        env = QueueEnvironment()
        assert env.outputs == ("i.sig", "i.val", "o.ack")
        assert not env.spec.fairness  # never obliged to send or ack

    def test_put_sends_arbitrary_value(self):
        from repro.kernel import successors

        env = QueueEnvironment(MSG)
        state = State({"i.sig": 0, "i.ack": 0, "i.val": 0,
                       "o.sig": 0, "o.ack": 0, "o.val": 0})
        values = {s["i.val"] for s in successors(env.put, state, env.universe)}
        assert values == {0, 1}

    def test_get_acks(self):
        from repro.kernel import successors

        env = QueueEnvironment(MSG)
        state = State({"i.sig": 0, "i.ack": 0, "i.val": 0,
                       "o.sig": 1, "o.ack": 0, "o.val": 1})
        result = list(successors(env.get, state, env.universe))
        assert len(result) == 1 and result[0]["o.ack"] == 1


class TestCompleteQueue:
    def test_figure6_equals_conjunction(self):
        """ICQ (Figure 6's disjunct form) and QE ∧ IQM generate the same
        reachable graph -- composition is conjunction."""
        g1 = explore(complete_queue(1))
        g2 = explore(complete_queue_conjunction(1))
        assert set(g1.states) == set(g2.states)
        assert edge_set(g1) == edge_set(g2)

    def test_capacity_invariant(self):
        spec = complete_queue(2)
        result = check_invariant(spec, Queue(2).capacity_invariant())
        assert result.ok

    def test_handshake_discipline(self):
        """o.val changes only while o is ready (the metastability concern
        of section A.1)."""
        from repro.temporal import ActionBox

        spec = complete_queue(1)
        graph = explore(spec)
        discipline = ActionBox(ready("o"), ("o.val",))
        result = check_temporal_implication(graph, discipline,
                                            premises=[], name="discipline")
        assert result.ok

    def test_forward_progress(self):
        spec = complete_queue(1)
        progress = LeadsTo(
            StatePred(Cmp(">", Len(Var("q")), 0) & ready("o")),
            StatePred(pending("o")))
        result = check_temporal_implication(
            spec, progress, premises=premises_of_spec(spec))
        assert result.ok

    def test_blocked_environment_counterexample(self):
        """Without environment fairness, a pending input need not be acked
        (the queue can be full while o is never drained)."""
        spec = complete_queue(1)
        hopeful = LeadsTo(StatePred(pending("i")), StatePred(ready("i")))
        result = check_temporal_implication(
            spec, hopeful, premises=premises_of_spec(spec))
        assert not result.ok

    def test_cq_formula_holds_on_reachable_lasso(self):
        from repro.kernel import Lasso

        spec = complete_queue(1)
        graph = explore(spec)
        # build a stuttering lasso from an initial state and hide q
        la = Lasso([graph.states[graph.init_nodes[0]]], 0)
        assert holds(cq_formula(1), la.project(
            [v for v in spec.universe.variables if v != "q"]),
            spec.universe.restrict([v for v in spec.universe.variables
                                    if v != "q"]))


class TestDoubleQueue:
    def test_figure8_equals_conjunction_with_g(self):
        """ICDQ (Figure 8) = QE ∧ IQM[1] ∧ IQM[2] ∧ G: the interleaved form
        is the conjunction *under the Disjoint condition*."""
        from repro.spec import conjoin

        dq = DoubleQueue(1)
        g1 = explore(dq.cdq_spec())
        with_g = conjoin([dq.env.spec, dq.q1.spec, dq.q2.spec,
                          dq.disjoint.spec(dq.universe.restrict(
                              [v for t in dq.disjoint.tuples for v in t]))])
        g2 = explore(with_g)
        assert set(g1.states) == set(g2.states)
        assert edge_set(g1) == edge_set(g2)

    def test_plain_conjunction_allows_simultaneity(self):
        """Section A.5's observation: without G, the conjunction allows an
        Enq of the first queue simultaneous with a Deq of the second --
        steps the interleaved ICDQ forbids."""
        dq = DoubleQueue(1)
        g1 = explore(dq.cdq_spec())
        g2 = explore(dq.cdq_conjunction())
        assert set(g1.states) == set(g2.states)  # same reachable states
        extra = edge_set(g2) - edge_set(g1)
        assert extra, "plain conjunction should allow simultaneous steps"
        assert not (edge_set(g1) - edge_set(g2))
        # at least one extra edge changes outputs of two components at once
        def changed(pre, post):
            return {v for v in pre if pre[v] != post[v]}
        assert any(
            changed(pre, post) & {"i.ack", "q1"} and
            changed(pre, post) & {"o.sig", "q2"}
            for pre, post in extra)

    def test_capacity_of_composition(self):
        """q1, q2 hold at most N each; with the z slot, total 2N+1."""
        from repro.kernel import Arith, Len

        dq = DoubleQueue(1)
        graph = explore(dq.cdq_spec())
        total = Cmp("<=",
                    Arith("+", Len(Var("q1")), Len(Var("q2"))),
                    2)
        assert check_invariant(graph, total).ok

    def test_mapping_concatenation_order(self):
        dq = DoubleQueue(1)
        state = State({"i.sig": 0, "i.ack": 0, "i.val": 0,
                       "z.sig": 1, "z.ack": 0, "z.val": 1,
                       "o.sig": 0, "o.ack": 0, "o.val": 0,
                       "q1": (0,), "q2": (1,)})
        mapped = dq.mapping.target_state(state, dq.icq_dbl().universe)
        # q2 (oldest) ++ in-flight on z ++ q1 (newest)
        assert mapped["q"] == (1, 1, 0)

    def test_refinement_safety(self):
        dq = DoubleQueue(1)
        result = check_safety_refinement(dq.cdq_spec(), dq.icq_dbl(),
                                         dq.mapping)
        assert result.ok

    def test_refinement_liveness(self):
        dq = DoubleQueue(1)
        spec = dq.cdq_spec()
        target = dq.icq_dbl()
        result = check_temporal_implication(
            spec, target.liveness_formula(), mapping=dq.mapping,
            target_universe=target.universe)
        assert result.ok

    def test_ag_specs_shape(self):
        dq = DoubleQueue(1)
        assert dq.ag_q1().assumption.name == "QE[1]"
        assert dq.ag_q2().assumption.name == "QE[2]"
        assert dq.ag_goal().guarantee_component.internals == ("q",)

    def test_disjoint_covers_prop4_pairs(self):
        dq = DoubleQueue(1)
        env_owned = dq.env.outputs
        sys_owned = dq.big.outputs
        assert dq.disjoint.separates_tuples(env_owned, sys_owned)
