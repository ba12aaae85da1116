"""Fairness-aware liveness checking: fair-cycle search over state graphs.

To check ``premises ⇒ conclusion`` where the premises include fairness
conditions (``WF``/``SF``) of implementation components and the conclusion
is a liveness property, we search for a **counterexample lasso**: a
reachable cycle that

* satisfies every premise fairness condition (a *fair* cycle), and
* violates the conclusion.

Fair-cycle existence under WF/SF constraints is a Streett-emptiness
problem; :func:`fair_units` implements the classical recursive SCC
filtering:

* a ``WF_v(A)`` premise is satisfiable within an SCC iff the SCC contains
  an ``<A>_v`` edge or a state where ``<A>_v`` is not enabled -- and if
  not, no sub-SCC can help, so the SCC is discarded;
* an ``SF_v(A)`` premise needs an ``<A>_v`` edge or *no* enabled state; if
  it fails, every fair subset must avoid the enabled states, so they are
  removed and the search recurses.

The conclusion is decomposed into conjuncts, each negated into a subgraph
restriction (see :class:`Violation`); any fair unit found inside the
restricted subgraph yields a concrete lasso, which is **re-validated
against the exact lasso semantics** (premises true, conclusion conjunct
false) before being reported -- the graph search proposes, the semantics
disposes.

Supported conclusion conjuncts: ``WF``, ``SF``, ``◇P``, ``□◇P``,
``P ~> Q`` (state predicates), ``◇<A>_v``, plus the safety conjuncts
(``StatePred``, ``□[A]_v``, ``□P``) which are checked directly on the
graph.  Conclusions may be evaluated through a refinement mapping, so the
target's hidden variables are handled exactly as in the paper: the mapping
is the witness for ``∃``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..kernel.action import (
    ActionPlans, angle, compile_action, holds_on_step, square,
)
from ..kernel.behavior import Lasso
from ..kernel.expr import Expr
from ..kernel.state import State, Universe
from ..spec import Fairness, Spec
from ..temporal.formulas import (
    ActionBox,
    ActionDiamond,
    Always,
    Eventually,
    LeadsTo,
    SF,
    StatePred,
    TAnd,
    TemporalFormula,
    WF,
    to_tf,
)
from ..temporal.semantics import EvalContext
from .compact import explore_compact
from .graph import GraphQueries
from .refinement import IDENTITY, RefinementMapping
from .results import CheckResult, Counterexample
from .stats import ExploreStats, maybe_phase


class PremiseConstraint:
    """One premise fairness condition, evaluated on implementation states.

    ``<A>_v`` is compiled once into a successor plan per universe (see
    :meth:`~repro.kernel.action.CompiledAction.plan`); ENABLED queries are
    memoised per node on top of that.
    """

    __slots__ = ("kind", "sub", "action", "_angle", "_compiled",
                 "_enabled_cache")

    def __init__(self, kind: str, sub: Sequence[str], action: Expr):
        self.kind = kind  # "WF" | "SF"
        self.sub = tuple(sub)
        self.action = action
        self._angle = angle(action, sub)
        self._compiled = compile_action(self._angle)
        self._enabled_cache: Dict[int, bool] = {}

    @classmethod
    def of(cls, fairness: Fairness) -> "PremiseConstraint":
        return cls(fairness.kind, fairness.sub, fairness.action)

    def formula(self) -> TemporalFormula:
        cls = WF if self.kind == "WF" else SF
        return cls(self.sub, self.action)

    def is_step(self, graph: GraphQueries, src: int, dst: int) -> bool:
        return holds_on_step(self._angle, graph.states[src], graph.states[dst])

    def is_enabled(self, graph: GraphQueries, node: int) -> bool:
        cached = self._enabled_cache.get(node)
        if cached is None:
            plan = self._compiled.plan(graph.universe)
            cached = plan.enabled(graph.states[node])
            self._enabled_cache[node] = cached
        return cached


def premises_of_spec(spec: Spec) -> List[PremiseConstraint]:
    return [PremiseConstraint.of(fair) for fair in spec.fairness]


EdgeOk = Callable[[int, int], bool]


def fair_units(
    graph: GraphQueries,
    nodes: Iterable[int],
    edge_ok: EdgeOk,
    premises: Sequence[PremiseConstraint],
) -> List[List[int]]:
    """All maximal fair-feasible node sets within the filtered subgraph.

    A returned unit U is strongly connected (under ``edge_ok``) and every
    premise is satisfiable by a cycle visiting all of U.  The decomposition
    is complete: a fair cycle exists in the subgraph iff some unit is
    returned.
    """
    result: List[List[int]] = []
    node_set = set(nodes)

    def edges_within(component: Sequence[int]) -> List[Tuple[int, int]]:
        comp = set(component)
        return [
            (src, dst)
            for src in component
            for dst in graph.succ[src]
            if dst in comp and edge_ok(src, dst)
        ]

    def process(candidates: Set[int]) -> None:
        for component in graph.sccs(candidates, edge_ok=edge_ok):
            comp_edges = edges_within(component)
            if not comp_edges:
                continue  # no cycle at all (stutter filtered out)
            to_remove: Set[int] = set()
            discard = False
            for premise in premises:
                has_edge = any(
                    premise.is_step(graph, src, dst) for src, dst in comp_edges
                )
                if has_edge:
                    continue
                enabled_nodes = [
                    n for n in component if premise.is_enabled(graph, n)
                ]
                if premise.kind == "WF":
                    if len(enabled_nodes) == len(component):
                        discard = True  # every sub-SCC is all-enabled, edgeless
                        break
                else:  # SF: fair subsets must avoid the enabled states
                    to_remove.update(enabled_nodes)
            if discard:
                continue
            if to_remove:
                remaining = set(component) - to_remove
                if remaining:
                    process(remaining)
            else:
                result.append(sorted(component))

    process(node_set)
    return result


class Violation:
    """The negation of one conclusion conjunct, as subgraph restrictions.

    A counterexample to the conjunct is a lasso whose loop lies in the
    subgraph (``loop_node_ok``/``loop_edge_ok``), is premise-fair, contains
    a ``require`` node if given, and is reached by a stem as described by
    ``entry``/``restricted_stem``.
    """

    __slots__ = (
        "description",
        "loop_node_ok",
        "loop_edge_ok",
        "require",
        "entry",
        "restricted_stem",
    )

    def __init__(
        self,
        description: str,
        loop_node_ok: Callable[[int], bool],
        loop_edge_ok: EdgeOk,
        require: Optional[Callable[[int], bool]] = None,
        entry: Optional[Callable[[int], bool]] = None,
        restricted_stem: bool = False,
    ):
        self.description = description
        self.loop_node_ok = loop_node_ok
        self.loop_edge_ok = loop_edge_ok
        self.require = require
        self.entry = entry
        self.restricted_stem = restricted_stem


class ConclusionChecker:
    """Checks one conclusion formula against a premise-fair state graph."""

    def __init__(
        self,
        graph: GraphQueries,
        premises: Sequence[PremiseConstraint],
        mapping: Optional[RefinementMapping] = None,
        target_universe: Optional[Universe] = None,
        name: str = "liveness",
    ):
        self.graph = graph
        self.premises = list(premises)
        self.mapping = mapping or IDENTITY
        self.target_universe = target_universe or graph.universe
        self.name = name
        self._mapped: Dict[int, State] = {}
        self._enabled_cache: Dict[Tuple[int, int], bool] = {}
        self._target_actions = ActionPlans()
        self.stats: Dict[str, int] = {
            "states": graph.state_count,
            "edges": graph.edge_count,
            "stutter": graph.stutter_count,
            "fair_units_examined": 0,
            "candidates_validated": 0,
        }

    # -- mapped-state helpers ------------------------------------------------

    def mapped_state(self, node: int) -> State:
        cached = self._mapped.get(node)
        if cached is None:
            cached = self.mapping.target_state(
                self.graph.states[node], self.target_universe
            )
            self._mapped[node] = cached
        return cached

    def _pred_holds(self, pred: Expr, node: int) -> bool:
        value = pred.eval_state(self.mapped_state(node))
        if not isinstance(value, bool):
            raise TypeError(f"predicate {pred!r} returned {value!r}")
        return value

    def _target_step(self, action: Expr, src: int, dst: int) -> bool:
        return holds_on_step(action, self.mapped_state(src), self.mapped_state(dst))

    def _target_enabled(self, action: Expr, node: int) -> bool:
        key = (id(action), node)  # _target_actions pins the id
        cached = self._enabled_cache.get(key)
        if cached is None:
            plan = self._target_actions.plan(action, self.target_universe)
            cached = plan.enabled(self.mapped_state(node))
            self._enabled_cache[key] = cached
        return cached

    # -- top level ------------------------------------------------------------

    def check(self, conclusion: TemporalFormula) -> CheckResult:
        conjuncts = _flatten_conjunction(to_tf(conclusion))
        notes: List[str] = []
        for conjunct in conjuncts:
            failure = self._check_conjunct(conjunct)
            if failure is not None:
                return CheckResult(
                    self.name, ok=False, counterexample=failure, stats=self.stats
                )
        return CheckResult(self.name, ok=True, stats=self.stats, notes=notes)

    # -- safety conjuncts (checked directly) -----------------------------------

    def _check_conjunct(self, tf: TemporalFormula) -> Optional[Counterexample]:
        if isinstance(tf, StatePred):
            for node in self.graph.init_nodes:
                if not self._pred_holds(tf.pred, node):
                    return self._finite_cex([node], f"initial state violates {tf!r}")
            return None
        if isinstance(tf, Always) and isinstance(tf.body, StatePred):
            for node in range(self.graph.state_count):
                if not self._pred_holds(tf.body.pred, node):
                    return self._finite_cex(
                        self.graph.path_to_root(node),
                        f"reachable state violates {tf!r}",
                    )
            return None
        if isinstance(tf, ActionBox):
            boxed = square(tf.action, tf.sub)
            for src in range(self.graph.state_count):
                for dst in self.graph.succ[src]:
                    if dst != src and not self._target_step(boxed, src, dst):
                        return self._finite_cex(
                            self.graph.path_to_root(src) + [dst],
                            f"mapped step violates {tf!r}",
                        )
            return None
        violation = self._violation_of(tf)
        return self._search(violation, tf)

    def _finite_cex(self, path: List[int], reason: str) -> Counterexample:
        from ..kernel.behavior import FiniteBehavior

        return Counterexample(
            FiniteBehavior([self.graph.states[i] for i in path]), reason
        )

    # -- negating liveness conjuncts ---------------------------------------------

    def _violation_of(self, tf: TemporalFormula) -> Violation:
        accept_all_nodes = lambda _n: True  # noqa: E731
        accept_all_edges = lambda _s, _d: True  # noqa: E731

        if isinstance(tf, Eventually) and isinstance(tf.body, StatePred):
            pred = tf.body.pred
            return Violation(
                f"never reaches {pred!r}",
                loop_node_ok=lambda n: not self._pred_holds(pred, n),
                loop_edge_ok=accept_all_edges,
                entry=None,
                restricted_stem=True,
            )
        if (
            isinstance(tf, Always)
            and isinstance(tf.body, Eventually)
            and isinstance(tf.body.body, StatePred)
        ):
            pred = tf.body.body.pred
            return Violation(
                f"eventually never {pred!r}",
                loop_node_ok=lambda n: not self._pred_holds(pred, n),
                loop_edge_ok=accept_all_edges,
            )
        if isinstance(tf, LeadsTo) and isinstance(tf.lhs, StatePred) and isinstance(
            tf.rhs, StatePred
        ):
            p, q = tf.lhs.pred, tf.rhs.pred
            return Violation(
                f"reaches {p!r} then never {q!r}",
                loop_node_ok=lambda n: not self._pred_holds(q, n),
                loop_edge_ok=accept_all_edges,
                entry=lambda n: self._pred_holds(p, n) and not self._pred_holds(q, n),
            )
        if isinstance(tf, ActionDiamond):
            act = tf._angle
            return Violation(
                f"never takes <{tf.action!r}>_{tf.sub}",
                loop_node_ok=accept_all_nodes,
                loop_edge_ok=lambda s, d: not self._target_step(act, s, d),
                restricted_stem=True,
            )
        if isinstance(tf, SF):
            act = tf._angle
            return Violation(
                f"violates SF: infinitely enabled, finitely taken",
                loop_node_ok=accept_all_nodes,
                loop_edge_ok=lambda s, d: not self._target_step(act, s, d),
                require=lambda n: self._target_enabled(act, n),
            )
        if isinstance(tf, WF):
            act = tf._angle
            return Violation(
                f"violates WF: eventually always enabled, finitely taken",
                loop_node_ok=lambda n: self._target_enabled(act, n),
                loop_edge_ok=lambda s, d: not self._target_step(act, s, d),
            )
        raise TypeError(
            f"unsupported liveness conclusion conjunct: {tf!r} "
            "(supported: WF, SF, <>P, []<>P, P ~> Q, <> <A>_v, and safety conjuncts)"
        )

    # -- the search -----------------------------------------------------------------

    def _search(self, violation: Violation, conjunct: TemporalFormula) -> Optional[Counterexample]:
        graph = self.graph
        nodes = [n for n in range(graph.state_count) if violation.loop_node_ok(n)]
        units = fair_units(graph, nodes, violation.loop_edge_ok, self.premises)
        for unit in units:
            self.stats["fair_units_examined"] += 1
            if violation.require is not None and not any(
                violation.require(n) for n in unit
            ):
                continue
            lasso = self._build_lasso(violation, unit)
            if lasso is None:
                continue
            self.stats["candidates_validated"] += 1
            if self._validate(lasso, conjunct):
                return Counterexample(
                    lasso,
                    f"premise-fair behavior where the conclusion fails: "
                    f"{violation.description}",
                )
        return None

    def _build_lasso(self, violation: Violation, unit: List[int]) -> Optional[Lasso]:
        graph = self.graph
        unit_set = set(unit)

        if violation.entry is not None:
            # two-phase stem: free path to an entry node, then a restricted
            # path into the unit
            entry_nodes = [
                n for n in range(graph.state_count)
                if violation.entry(n)
            ]
            best: Optional[List[int]] = None
            for entry in entry_nodes:
                free = graph.bfs_path(graph.init_nodes, lambda n: n == entry)
                if free is None:
                    continue
                tail = graph.bfs_path(
                    [entry],
                    lambda n: n in unit_set,
                    node_ok=violation.loop_node_ok,
                    edge_ok=violation.loop_edge_ok,
                )
                if tail is None:
                    continue
                stem = free + tail[1:]
                if best is None or len(stem) < len(best):
                    best = stem
            if best is None:
                return None
            stem = best
        elif violation.restricted_stem:
            stem = graph.bfs_path(
                graph.init_nodes,
                lambda n: n in unit_set,
                node_ok=violation.loop_node_ok,
                edge_ok=violation.loop_edge_ok,
            )
            if stem is None:
                return None
        else:
            stem = graph.bfs_path(graph.init_nodes, lambda n: n in unit_set)
            if stem is None:
                return None

        anchor = stem[-1]
        ordered = [anchor] + [n for n in unit if n != anchor]
        required = [
            (src, dst)
            for src in unit
            for dst in graph.succ[src]
            if dst in unit_set and dst != src and violation.loop_edge_ok(src, dst)
        ]
        cycle = graph.covering_cycle(ordered, violation.loop_edge_ok, required)
        states = [graph.states[i] for i in stem[:-1]] + [graph.states[i] for i in cycle]
        return Lasso(states, loop_start=len(stem) - 1)

    def _validate(self, lasso: Lasso, conjunct: TemporalFormula) -> bool:
        """Exact-semantics confirmation: premises hold, conjunct fails."""
        impl_ctx = EvalContext(lasso, self.graph.universe)
        for premise in self.premises:
            if not impl_ctx.eval(premise.formula(), 0):
                return False
        mapped = self.mapping.map_lasso(lasso, self.target_universe)
        target_ctx = EvalContext(mapped, self.target_universe)
        return not target_ctx.eval(conjunct, 0)


def _flatten_conjunction(tf: TemporalFormula) -> List[TemporalFormula]:
    if isinstance(tf, TAnd):
        flat: List[TemporalFormula] = []
        for part in tf.parts:
            flat.extend(_flatten_conjunction(part))
        return flat
    return [tf]


def check_temporal_implication(
    impl: Union[Spec, GraphQueries],
    conclusion: object,
    mapping: Optional[RefinementMapping] = None,
    target_universe: Optional[Universe] = None,
    premises: Optional[Sequence[PremiseConstraint]] = None,
    name: Optional[str] = None,
    max_states: int = 200_000,
    run_stats: Optional[ExploreStats] = None,
) -> CheckResult:
    """Check ``impl ⇒ conclusion`` where *impl* is a canonical spec (its
    fairness becomes the premises) and *conclusion* is a conjunction of
    safety and liveness conjuncts, optionally through a refinement mapping.

    This is the workhorse behind hypothesis (2b) of the Composition
    Theorem and the refinement Corollary.  Pass *run_stats* to time the
    exploration and fair-cycle-search phases.
    """
    if isinstance(impl, GraphQueries):
        graph = impl
        if premises is None:
            premises = []
        label = name or "temporal implication"
        if run_stats is not None and run_stats.states == 0:
            run_stats.record_graph(graph)
    else:
        graph = explore_compact(impl, max_states=max_states,
                                stats=run_stats)
        if premises is None:
            premises = premises_of_spec(impl)
        label = name or f"{impl.name} => conclusion"
    checker = ConclusionChecker(
        graph,
        premises,
        mapping=mapping,
        target_universe=target_universe,
        name=label,
    )
    with maybe_phase(run_stats, f"liveness:{label}"):
        return checker.check(to_tf(conclusion))
