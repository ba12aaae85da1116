"""Unit tests for state-space exploration and the graph machinery."""

import pytest

from repro.checker import ExploreStats, StateSpaceExplosion, explore, initial_states
from repro.checker.graph import StateGraph as Graph
from repro.kernel import And, BIT, Eq, Exists, Or, Universe, Var, interval
from repro.kernel.values import Domain
from repro.spec import Spec

from tests.conftest import counter_spec, st

x, y = Var("x"), Var("y")


class TestInitialStates:
    def test_fully_determined(self):
        universe = Universe({"x": interval(0, 5)})
        assert list(initial_states(Eq(x, 3), universe)) == [st(x=3)]

    def test_partially_determined(self):
        universe = Universe({"x": BIT, "y": BIT})
        states = set(initial_states(Eq(x, 0), universe))
        assert states == {st(x=0, y=0), st(x=0, y=1)}

    def test_constraint_form(self):
        universe = Universe({"x": interval(0, 3)})
        states = set(initial_states(x < 2, universe))
        assert states == {st(x=0), st(x=1)}

    def test_disjunctive_init(self):
        universe = Universe({"x": interval(0, 3)})
        states = set(initial_states(Or(Eq(x, 0), Eq(x, 3)), universe))
        assert states == {st(x=0), st(x=3)}

    def test_exists_init(self):
        universe = Universe({"x": interval(0, 3)})
        init = Exists("v", interval(1, 2), Eq(x, Var("v")))
        assert set(initial_states(init, universe)) == {st(x=1), st(x=2)}

    def test_primed_init_rejected(self):
        with pytest.raises(ValueError):
            list(initial_states(Eq(x.prime(), 0), Universe({"x": BIT})))

    def test_unsatisfiable(self):
        universe = Universe({"x": BIT})
        assert list(initial_states(And(Eq(x, 0), Eq(x, 1)), universe)) == []

    def test_empty_domain_names_the_variable(self):
        class EmptyDomain(Domain):
            def values(self):
                return iter(())

            def __contains__(self, value):
                return False

            def size(self):
                return 0

        universe = Universe({"x": BIT, "weird": EmptyDomain()})
        with pytest.raises(ValueError, match="'weird'.*empty domain"):
            list(initial_states(Eq(x, 0), universe))


class TestExplore:
    def test_counter(self):
        graph = explore(counter_spec())
        assert graph.state_count == 3
        assert graph.init_nodes == [0]
        # stutter self-loop on every node
        for node in range(graph.state_count):
            assert node in graph.succ[node]

    def test_unreachable_states_absent(self):
        universe = Universe({"x": interval(0, 9)})
        spec = Spec("stuck", Eq(x, 0), And(Eq(x, 0), Eq(x.prime(), 1)),
                    ("x",), universe)
        graph = explore(spec)
        assert graph.state_count == 2

    def test_explosion_guard(self):
        spec = counter_spec(modulus=3)
        with pytest.raises(StateSpaceExplosion):
            explore(spec, max_states=1)

    def test_budget_enforced_at_insertion_not_per_level(self):
        # exactly the reachable count fits; one less explodes
        spec = counter_spec(modulus=3)
        graph = explore(spec, max_states=3)
        assert graph.state_count == 3
        with pytest.raises(StateSpaceExplosion, match="state budget.*2"):
            explore(spec, max_states=2)

    def test_parent_paths(self):
        graph = explore(counter_spec())
        target = graph.lookup(st(x=2))
        path = graph.path_to_root(target)
        assert [graph.states[i]["x"] for i in path] == [0, 1, 2]

    def test_edge_counts_split_real_from_stutter(self):
        graph = explore(counter_spec())
        # the 3-cycle has 3 real N-edges; stutter loops are one per node
        assert graph.edge_count == 3
        assert graph.stutter_count == 3
        assert graph.total_edge_count == 6

    def test_stats_populated(self):
        stats = ExploreStats()
        graph = explore(counter_spec(), stats=stats)
        assert stats.states == graph.state_count == 3
        assert stats.edges == 3 and stats.stutter_edges == 3
        assert stats.init_states == 1
        assert stats.depth == 2  # x=0 -> x=1 -> x=2
        assert stats.states_per_sec > 0
        assert stats.explore_seconds > 0
        assert "explore" in stats.phases
        assert "states/sec" in stats.format()

    def test_stats_summary_reports_levels_and_peak_rss(self):
        stats = ExploreStats()
        explore(counter_spec(), stats=stats)
        text = stats.summary()
        assert "per-level:" in text
        assert "real-edges" in text
        assert "peak RSS:" in text
        snapshot = stats.as_dict()
        assert len(snapshot["levels"]) == stats.depth + 1
        assert snapshot["peak_rss_kb"] >= 0

    def test_plan_build_is_a_named_phase(self):
        """Successor-plan construction shows beside ``explore`` (which
        contains it) on both engines, and costs nothing without stats."""
        from repro.checker import explore_compact

        for run in (explore, explore_compact):
            stats = ExploreStats()
            run(counter_spec(), stats=stats)
            assert list(stats.phases) == ["plan", "explore"]
            assert 0 < stats.phases["plan"] < stats.phases["explore"]
            assert stats.total_seconds == stats.phases["explore"]
            assert "plan" in stats.as_dict()["phases"]
            assert "phases: plan " in stats.format()


class TestStateGraph:
    def build_diamond(self):
        """0 -> {1, 2} -> 3 -> 0 (plus stutter loops)."""
        graph = Graph(Universe({"x": interval(0, 3)}))
        nodes = [graph.add_state(st(x=i))[0] for i in range(4)]
        for src, dst in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]:
            graph.add_edge(nodes[src], nodes[dst])
        graph.init_nodes = [0]
        return graph

    def test_bfs_path(self):
        graph = self.build_diamond()
        path = graph.bfs_path([0], lambda n: n == 3)
        assert path is not None and path[0] == 0 and path[-1] == 3
        assert len(path) == 3

    def test_bfs_respects_filters(self):
        graph = self.build_diamond()
        path = graph.bfs_path([0], lambda n: n == 3, node_ok=lambda n: n != 1)
        assert path == [0, 2, 3]
        none = graph.bfs_path([0], lambda n: n == 3,
                              node_ok=lambda n: n not in (1, 2))
        assert none is None

    def test_bfs_source_is_target(self):
        graph = self.build_diamond()
        assert graph.bfs_path([2], lambda n: n == 2) == [2]

    def test_sccs_whole_graph(self):
        graph = self.build_diamond()
        sccs = graph.sccs()
        assert sorted(len(c) for c in sccs) == [4]

    def test_sccs_with_edge_filter(self):
        graph = self.build_diamond()
        # cutting 3 -> 0 leaves only stutter-loop singletons
        sccs = graph.sccs(edge_ok=lambda s, d: (s, d) != (3, 0))
        assert sorted(len(c) for c in sccs) == [1, 1, 1, 1]

    def test_sccs_no_stutter_no_component(self):
        graph = self.build_diamond()
        sccs = graph.sccs(
            edge_ok=lambda s, d: s != d and (s, d) != (3, 0))
        assert sccs == []

    def test_covering_cycle_visits_everything(self):
        graph = self.build_diamond()
        cycle = graph.covering_cycle([0, 1, 2, 3])
        assert set(cycle) == {0, 1, 2, 3}
        # consecutive nodes connected, and wrap edge exists
        extended = cycle + [cycle[0]]
        for a, b in zip(extended, extended[1:]):
            assert b in graph.succ[a]

    def test_covering_cycle_with_required_edges(self):
        graph = self.build_diamond()
        cycle = graph.covering_cycle([0, 1, 2, 3],
                                     required_edges=[(0, 2), (0, 1)])
        pairs = set(zip(cycle, cycle[1:] + [cycle[0]]))
        assert (0, 2) in pairs and (0, 1) in pairs

    def test_covering_cycle_singleton_stutter(self):
        graph = self.build_diamond()
        assert graph.covering_cycle([1], edge_ok=lambda s, d: s == d) == [1]

    def test_covering_cycle_rejects_non_edge_requirement(self):
        graph = self.build_diamond()
        # (1, 2) is not an edge of the diamond at all
        with pytest.raises(ValueError, match=r"required edge \(1, 2\)"):
            graph.covering_cycle([0, 1, 2, 3], required_edges=[(1, 2)])

    def test_covering_cycle_rejects_filtered_requirement(self):
        graph = self.build_diamond()
        # (0, 1) exists but the filter forbids it
        with pytest.raises(ValueError, match="edge filter"):
            graph.covering_cycle([0, 1, 2, 3],
                                 edge_ok=lambda s, d: (s, d) != (0, 1),
                                 required_edges=[(0, 1)])

    def test_covering_cycle_rejects_requirement_outside_component(self):
        graph = self.build_diamond()
        with pytest.raises(ValueError, match="leaves the component"):
            graph.covering_cycle([0, 1, 3], required_edges=[(0, 2)])

    def test_add_state_idempotent(self):
        graph = Graph(Universe({"x": BIT}))
        n1, new1 = graph.add_state(st(x=0))
        n2, new2 = graph.add_state(st(x=0))
        assert n1 == n2 and new1 and not new2

    def test_add_edge_deduplicates_and_counts(self):
        graph = Graph(Universe({"x": interval(0, 3)}))
        nodes = [graph.add_state(st(x=i))[0] for i in range(3)]
        graph.add_edge(nodes[0], nodes[1])
        graph.add_edge(nodes[0], nodes[1])  # duplicate: ignored
        graph.add_edge(nodes[0], nodes[0])  # stutter: never re-added
        graph.add_edge(nodes[1], nodes[2])
        assert graph.succ[0] == [0, 1]  # stutter first, then the real edge
        assert graph.edge_count == 2
        assert graph.stutter_count == 3
        assert graph.has_edge(0, 1) and graph.has_edge(0, 0)
        assert not graph.has_edge(0, 2)

    def test_graph_level_budget(self):
        graph = Graph(Universe({"x": interval(0, 9)}), max_states=2,
                      name="tiny")
        graph.add_state(st(x=0))
        graph.add_state(st(x=1))
        graph.add_state(st(x=1))  # re-interning an old state is free
        with pytest.raises(StateSpaceExplosion, match="'tiny'.*2 states"):
            graph.add_state(st(x=2))


class TestNodeIdValidation:
    """Out-of-graph node ids (typically states dropped past the
    ``max_states`` budget) get a defined ``ValueError``, never a silent
    negative-index path or a bare ``IndexError``."""

    def build(self):
        graph = Graph(Universe({"x": interval(0, 3)}))
        nodes = [graph.add_state(st(x=i))[0] for i in range(3)]
        graph.add_edge(nodes[0], nodes[1])
        graph.add_edge(nodes[1], nodes[2])
        graph.parent = [None, 0, 1]
        graph.init_nodes = [0]
        return graph

    @pytest.mark.parametrize("bogus", [-1, -7, 3, 10**9])
    def test_path_to_root_rejects_out_of_graph_ids(self, bogus):
        graph = self.build()
        with pytest.raises(ValueError, match="not in this graph"):
            graph.path_to_root(bogus)

    def test_path_to_root_message_names_the_budget(self):
        graph = self.build()
        with pytest.raises(ValueError, match="max_states budget"):
            graph.path_to_root(99)

    @pytest.mark.parametrize("bogus", [-1, 3, 10**9])
    def test_bfs_path_rejects_out_of_graph_sources(self, bogus):
        graph = self.build()
        with pytest.raises(ValueError, match="not in this graph"):
            graph.bfs_path([0, bogus], lambda n: n == 2)

    def test_bfs_path_still_accepts_valid_generators(self):
        # sources may be any iterable; validation must not consume it
        # before filtering
        graph = self.build()
        path = graph.bfs_path(iter([0]), lambda n: n == 2)
        assert path == [0, 1, 2]

    def test_negative_id_does_not_wrap_around(self):
        # the regression this guards: parent[-1] used to index from the
        # end and produce a wrong-but-plausible path instead of an error
        graph = self.build()
        with pytest.raises(ValueError):
            graph.path_to_root(-1)


class TestCompactNodeIdValidation:
    """The compact graph mirrors the id-validation contract."""

    def build(self):
        from repro.checker import explore_compact
        from repro.systems.queue import complete_queue
        return explore_compact(complete_queue(2))

    @pytest.mark.parametrize("bogus", [-1, 10**9])
    def test_path_to_root_rejects_out_of_graph_ids(self, bogus):
        graph = self.build()
        with pytest.raises(ValueError, match="not in this graph"):
            graph.path_to_root(bogus)

    @pytest.mark.parametrize("bogus", [-1, 10**9])
    def test_state_at_rejects_out_of_graph_ids(self, bogus):
        graph = self.build()
        with pytest.raises(ValueError, match="not in this graph"):
            graph.state_at(bogus)

    def test_trace_to_rejects_out_of_graph_ids(self):
        graph = self.build()
        with pytest.raises(ValueError, match="not in this graph"):
            graph.trace_to(graph.state_count)

    def test_csr_edges_of_a_budget_capped_run(self):
        """The frontier the budget left unexpanded has only its stutter
        loop; every expanded node's edges equal the full graph's."""
        from repro.checker import explore_compact
        from repro.systems.queue import complete_queue

        spec = complete_queue(2)
        with pytest.raises(StateSpaceExplosion) as compact_exc:
            explore_compact(spec, max_states=40)
        with pytest.raises(StateSpaceExplosion) as full_exc:
            explore(spec, max_states=40)
        compact, full = compact_exc.value.graph, full_exc.value.graph
        assert [list(row) for row in compact.succ] == full.succ
        assert compact.edge_count == full.edge_count
        last = compact.state_count - 1
        assert compact.succ[last] == [last]
        for src in range(compact.state_count):
            for dst in range(compact.state_count):
                assert compact.has_edge(src, dst) == full.has_edge(src, dst)
        with pytest.raises(IndexError):
            compact.succ[compact.state_count]
        with pytest.raises(RuntimeError, match="out of order"):
            compact.merge_successors(last, [])
