"""Safety refinement checking with refinement mappings.

``M_impl ⇒ M_target`` for the safety parts of canonical specifications:
every reachable behavior of the implementation, viewed through a
*refinement mapping* (which supplies values for the target's internal
variables as state functions of the implementation, exactly as in the
paper's section A.4), satisfies ``Init_target ∧ □[N_target]_v``.

The check is the standard simulation argument:

* every initial implementation state maps to a target state satisfying
  ``Init_target``;
* every implementation step maps to a ``[N_target]_v`` step.

Both conditions are verified exhaustively over the reachable graph, so a
pass is a proof (for the finite instance) and a failure yields a concrete
finite trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..kernel.behavior import FiniteBehavior, Lasso
from ..kernel.expr import Env, EvalError, Expr, Var, to_expr
from ..kernel.action import CompiledAction, square
from ..kernel.state import State, Universe
from ..spec import Spec
from .compact import explore_compact
from .graph import GraphQueries
from .results import CheckResult, Counterexample
from .stats import ExploreStats, maybe_phase


class RefinementMapping:
    """Derives target-specification states from implementation states.

    ``exprs`` maps target variable names to state functions over the
    implementation's variables; target variables not mentioned are mapped
    identically (they must then exist in the implementation).  The paper's
    double-queue proof uses the mapping
    ``q ↦ q2 ∘ buffer(z) ∘ q1`` (section A.4).
    """

    __slots__ = ("exprs",)

    def __init__(self, exprs: Optional[Mapping[str, object]] = None):
        self.exprs: Dict[str, Expr] = {
            name: to_expr(expr) for name, expr in (exprs or {}).items()
        }
        for name, expr in self.exprs.items():
            if expr.primed_vars():
                raise ValueError(
                    f"refinement mapping for {name!r} must be a state function, "
                    f"got primes in {expr!r}"
                )

    def expr_for(self, target_var: str) -> Expr:
        return self.exprs.get(target_var, Var(target_var))

    def target_state(self, impl_state: State, target_universe: Universe) -> State:
        values = {}
        for name in target_universe.variables:
            try:
                value = self.expr_for(name).eval_state(impl_state)
            except EvalError as exc:
                raise EvalError(
                    f"refinement mapping cannot produce target variable {name!r} "
                    f"from {impl_state!r}: {exc}"
                ) from exc
            values[name] = value
        return State(values)

    def map_lasso(self, lasso: Lasso, target_universe: Universe) -> Lasso:
        return lasso.map_states(lambda s: self.target_state(s, target_universe))

    def __repr__(self) -> str:
        return f"RefinementMapping({sorted(self.exprs)})"


IDENTITY = RefinementMapping()


class MappedGraph:
    """A reachable graph read as a target spec's states through a mapping.

    Every obligation reads its states, predicates, steps and ENABLED
    here.  Each node's target state is memoised, and a mapped one is
    domain-checked; the identity view on the graph's own universe keeps
    the decoded state as it is.  The ENABLED memo is keyed by compiled
    action and node and dies with the view, so an answer never crosses
    graphs.
    """

    __slots__ = ("graph", "mapping", "universe", "identity", "_mapped",
                 "_enabled")

    def __init__(self, graph: GraphQueries,
                 mapping: RefinementMapping = IDENTITY,
                 universe: Optional[Universe] = None):
        self.graph = graph
        self.mapping = mapping
        self.universe = graph.universe if universe is None else universe
        self.identity = mapping is IDENTITY and self.universe is graph.universe
        self._mapped: Dict[int, State] = {}
        self._enabled: Dict[Tuple[CompiledAction, int], bool] = {}

    def state(self, node: int) -> State:
        cached = self._mapped.get(node)
        if cached is None:
            cached = impl_state = self.graph.states[node]
            if not self.identity:
                # a value outside the target's domains would make the
                # verdict one about states the target never has
                cached = self.mapping.target_state(impl_state, self.universe)
                for var in self.universe.variables:
                    if cached[var] not in self.universe.domain(var):
                        raise ValueError(
                            f"refinement mapping sends {var!r} to "
                            f"{cached[var]!r}, outside its target domain "
                            f"(impl state {impl_state!r})"
                        )
            self._mapped[node] = cached
        return cached

    def holds(self, pred: Expr, node: int) -> bool:
        value = pred.eval_state(self.state(node))
        if not isinstance(value, bool):
            raise TypeError(f"predicate {pred!r} returned {value!r}")
        return value

    def step(self, action: Expr, src: int, dst: int) -> bool:
        return action.holds(Env(self.state(src), self.state(dst)))

    def enabled(self, compiled: CompiledAction, node: int) -> bool:
        key = (compiled, node)  # the key pins the compiled action
        cached = self._enabled.get(key)
        if cached is None:
            plan = compiled.plan(self.universe)
            cached = self._enabled[key] = plan.enabled(self.state(node))
        return cached

    def first_failing(self, pred: Expr, nodes: Iterable[int]) -> Optional[int]:
        return next((n for n in nodes if not self.holds(pred, n)), None)

    def first_failing_step(self, action: Expr) -> Optional[Tuple[int, int]]:
        """The first edge that is not an *action* step; a stutter maps
        to a stutter, which every ``[A]_v`` allows."""
        graph = self.graph
        for src in range(graph.state_count):
            for dst in graph.succ[src]:
                if dst != src and not self.step(action, src, dst):
                    return src, dst
        return None


def explored(impl: Union[Spec, GraphQueries], max_states: int,
             run_stats: Optional[ExploreStats]) -> GraphQueries:
    """The graph a check reads: *impl* itself when it is a pre-explored
    graph (shared across obligations; recorded on *run_stats* unless that
    already counts a graph), else the compact exploration of the spec."""
    if isinstance(impl, GraphQueries):
        if run_stats is not None and run_stats.states == 0:
            run_stats.record_graph(impl)
        return impl
    return explore_compact(impl, max_states=max_states, stats=run_stats)


def check_safety_refinement(
    impl: Union[Spec, GraphQueries],
    target: Spec,
    mapping: Optional[RefinementMapping] = None,
    name: Optional[str] = None,
    max_states: int = 200_000,
    run_stats: Optional[ExploreStats] = None,
) -> CheckResult:
    """Exhaustively check ``C(impl) ⇒ C(target)`` on the reachable graph.

    *impl* may be a pre-explored graph (to share exploration across
    obligations).  Mapped values must lie in the target universe's
    domains (see :meth:`MappedGraph.state`).  Pass *run_stats* to time
    the exploration and simulation phases.
    """
    graph = explored(impl, max_states, run_stats)
    label = name or (f"{impl.name} => C({target.name})"
                     if isinstance(impl, Spec)
                     else f"safety refinement -> {target.name}")
    stats = {"states": graph.state_count, "edges": graph.edge_count,
             "stutter": graph.stutter_count}
    view = MappedGraph(graph, mapping or IDENTITY, target.universe)

    def failure(path: List[int], reason: str) -> CheckResult:
        trace = FiniteBehavior([graph.states[i] for i in path])
        return CheckResult(label, ok=False, stats=stats,
                           counterexample=Counterexample(trace, reason))

    with maybe_phase(run_stats, f"refinement:{label}"):
        node = view.first_failing(target.init, graph.init_nodes)
        if node is not None:
            return failure(
                [node],
                f"mapped initial state violates Init of {target.name}: "
                f"{view.state(node)!r}")
        edge = view.first_failing_step(square(target.next_action, target.sub))
        if edge is not None:
            src, dst = edge
            return failure(
                graph.path_to_root(src) + [dst],
                f"mapped step violates [N]_v of {target.name}: "
                f"{view.state(src)!r} -> {view.state(dst)!r}")
    return CheckResult(label, ok=True, stats=stats)
