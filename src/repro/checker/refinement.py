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

from typing import Dict, Mapping, Optional, Union

from ..kernel.behavior import FiniteBehavior, Lasso
from ..kernel.expr import Env, EvalError, Expr, Var, to_expr
from ..kernel.action import square
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


def check_safety_refinement(
    impl: Union[Spec, GraphQueries],
    target: Spec,
    mapping: Optional[RefinementMapping] = None,
    name: Optional[str] = None,
    max_states: int = 200_000,
    domain_check: bool = True,
    run_stats: Optional[ExploreStats] = None,
) -> CheckResult:
    """Exhaustively check ``C(impl) ⇒ C(target)`` on the reachable graph.

    *impl* may be a pre-explored graph (to share exploration across
    obligations).  With ``domain_check`` (default), mapped values must lie
    in the target universe's domains -- catching refinement mappings that
    leave the intended value space, which would make the verdict
    meaningless.  Pass *run_stats* to time the exploration and simulation
    phases.
    """
    mapping = mapping or IDENTITY
    if isinstance(impl, GraphQueries):
        graph = impl
        label = name or f"safety refinement -> {target.name}"
        if run_stats is not None and run_stats.states == 0:
            run_stats.record_graph(graph)
    else:
        graph = explore_compact(impl, max_states=max_states,
                                stats=run_stats)
        label = name or f"{impl.name} => C({target.name})"
    stats = {"states": graph.state_count, "edges": graph.edge_count,
             "stutter": graph.stutter_count}

    mapped: Dict[int, State] = {}

    def target_of(node: int) -> State:
        cached = mapped.get(node)
        if cached is None:
            cached = mapping.target_state(graph.states[node], target.universe)
            if domain_check:
                for var in target.universe.variables:
                    if cached[var] not in target.universe.domain(var):
                        raise ValueError(
                            f"refinement mapping sends {var!r} to "
                            f"{cached[var]!r}, outside its target domain "
                            f"(impl state {graph.states[node]!r})"
                        )
            mapped[node] = cached
        return cached

    def impl_trace(path) -> FiniteBehavior:
        return FiniteBehavior([graph.states[i] for i in path])

    with maybe_phase(run_stats, f"refinement:{label}"):
        # initial condition
        for node in graph.init_nodes:
            value = target.init.eval_state(target_of(node))
            if not isinstance(value, bool):
                raise TypeError(f"target Init returned non-Boolean {value!r}")
            if not value:
                return CheckResult(
                    label,
                    ok=False,
                    counterexample=Counterexample(
                        impl_trace([node]),
                        f"mapped initial state violates Init of {target.name}: "
                        f"{target_of(node)!r}",
                    ),
                    stats=stats,
                )

        # step condition -- the boxed action is built (and coerced) once,
        # then evaluated per mapped edge
        boxed = to_expr(square(target.next_action, target.sub))
        for src in range(graph.state_count):
            mapped_src = None
            for dst in graph.succ[src]:
                if dst == src:
                    continue  # stutter maps to stutter: [N]_v trivially
                if mapped_src is None:
                    mapped_src = target_of(src)
                if not boxed.holds(Env(mapped_src, target_of(dst))):
                    path = graph.path_to_root(src) + [dst]
                    return CheckResult(
                        label,
                        ok=False,
                        counterexample=Counterexample(
                            impl_trace(path),
                            f"mapped step violates [N]_v of {target.name}: "
                            f"{target_of(src)!r} -> {target_of(dst)!r}",
                        ),
                        stats=stats,
                    )
    return CheckResult(label, ok=True, stats=stats)
