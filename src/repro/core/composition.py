"""The Composition Theorem (section 5 of the paper), as a proof engine.

Given devices with assumption/guarantee specifications ``E_j ⊳ M_j`` and a
goal ``E ⊳ M``, the theorem concludes ``⋀_j (E_j ⊳ M_j) ⇒ (E ⊳ M)`` from
three families of *complete-system* hypotheses:

1. for each i:   ``C(E) ∧ ⋀_j C(M_j)  ⇒  E_i``
2. (a)           ``C(E)+v ∧ ⋀_j C(M_j)  ⇒  C(M)``
   (b)           ``E ∧ ⋀_j M_j  ⇒  M``

The engine turns each hypothesis into a model-checking run over the
*conjunction* of the involved canonical specifications (which is itself a
canonical specification -- exactly the observation the paper makes after
stating the theorem), applying the paper's propositions to justify each
syntactic step:

* **Proposition 1** computes the closures ``C(M_j)`` (drop fairness);
* **Proposition 2** removes the ``∃`` quantifiers: the hypotheses are
  checked with internal variables visible, the goal's internals supplied
  by a refinement mapping (the witness for ``∃x`` on the right);
* **Propositions 3 and 4** eliminate the ``+v`` in hypothesis 2(a):
  given the interleaving condition ``Disjoint`` and the initial
  disjunction, ``C(E) ⊥ C(M)`` holds, so 2(a) reduces to the plain safety
  implication ``C(E) ∧ ⋀ C(M_j) ⇒ C(M)``.

Conditional implementation ``G ∧ ⋀(E_j ⊳ M_j) ⇒ (E ⊳ M)`` is obtained by
the paper's trick of adding ``G`` as a component with ``M_1 = G`` and
``E_1 = true`` (``true ⊳ G`` equals ``G``); pass the interleaving
condition as ``disjoint=`` and the engine does exactly that.

The result is a :class:`~repro.core.certificate.Certificate` whose
rendering mirrors the paper's Figure 9 proof sketch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..checker.compact import explore_compact
from ..checker.graph import GraphQueries
from ..checker.liveness import check_temporal_implication, premises_of_spec
from ..checker.refinement import IDENTITY, RefinementMapping, check_safety_refinement
from ..kernel.state import Universe
from ..spec import Spec, conjoin
from .agspec import AGSpec
from .certificate import Certificate, Obligation
from .disjoint import DisjointSpec
from .propositions import (
    PropositionReport,
    proposition1,
    proposition2,
    proposition3,
    proposition4,
)


class CompositionTheorem:
    """One application of the Composition Theorem.

    Parameters
    ----------
    components:
        The devices' assumption/guarantee specifications ``E_j ⊳ M_j``.
    goal:
        The target specification ``E ⊳ M``.
    disjoint:
        The interleaving condition ``G`` (optional).  It is added as the
        component ``true ⊳ G`` and also feeds Proposition 4.
    mapping:
        Refinement mapping supplying the goal guarantee's internal
        variables as state functions of the composition (Proposition 2's
        witness).  Identity by default.
    plus_sub:
        The tuple ``v`` of the ``+v`` in hypothesis 2(a); defaults to all
        visible (non-internal) variables in play, matching the paper's
        ``<i, o, z>`` in the queue proof.
    """

    def __init__(
        self,
        components: Sequence[AGSpec],
        goal: AGSpec,
        disjoint: Optional[DisjointSpec] = None,
        mapping: Optional[RefinementMapping] = None,
        plus_sub: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        max_states: int = 200_000,
    ):
        if not components:
            raise ValueError("the Composition Theorem needs at least one component")
        self.devices = list(components)
        self.goal = goal
        self.disjoint = disjoint
        self.mapping = mapping or IDENTITY
        self.max_states = max_states
        self.name = name or (
            " ∧ ".join(ag.name for ag in self.devices) + f" ⇒ {goal.name}"
        )

        self.universe = self._merged_universe()
        self._plus_sub = tuple(plus_sub) if plus_sub is not None else None

        # all_parts: the M_j of the theorem, with G (if any) first,
        # mirroring the paper's substitution M_1 <- G, E_1 <- true.
        self.all_parts: List[AGSpec] = []
        if disjoint is not None:
            # restrict G's universe to the variables it actually mentions:
            # handing it the full merged universe would drag the goal's
            # internal variables into the hypothesis products, where nothing
            # constrains them (see the note in _safety_product)
            g_vars = [v for t in disjoint.tuples for v in t]
            self.all_parts.append(
                AGSpec("G", None,
                       disjoint.spec(self.universe.restrict(g_vars), name="G"))
            )
        self.all_parts.extend(self.devices)

    # -- setup helpers -------------------------------------------------------

    def _merged_universe(self) -> Universe:
        universe = self.goal.guarantee_spec.universe
        if self.goal.assumption is not None:
            universe = universe.merge(self.goal.assumption.universe)
        for ag in self.devices:
            universe = universe.merge(ag.guarantee_spec.universe)
            if ag.assumption is not None:
                universe = universe.merge(ag.assumption.universe)
        return universe

    def _all_internals(self) -> Tuple[str, ...]:
        names: Tuple[str, ...] = tuple(self.goal.internals)
        for ag in self.all_parts:
            names += tuple(x for x in ag.internals if x not in names)
        return names

    def plus_sub(self) -> Tuple[str, ...]:
        if self._plus_sub is not None:
            return self._plus_sub
        internals = set(self._all_internals())
        return tuple(v for v in self.universe.variables if v not in internals)

    def conclusion_formula(self):
        """``⋀_j (E_j ⊳ M_j) ⇒ (E ⊳ M)`` as a temporal formula, including
        ``G`` as ``true ⊳ G``; usable by the brute-force semantic checker."""
        from ..temporal.formulas import TAnd, TImplies

        premises = TAnd(*[ag.formula() for ag in self.all_parts])
        return TImplies(premises, self.goal.formula())

    # -- the proof -------------------------------------------------------------

    def verify(self) -> Certificate:
        cert = Certificate(
            self.name,
            "⋀_j (E_j ⊳ M_j) ⇒ (E ⊳ M)   with   "
            + ", ".join(f"M_{j + 1} ← {ag.guarantee_spec.name}"
                        for j, ag in enumerate(self.all_parts))
            + f",  E ← {self.goal.assumption.name if self.goal.assumption else 'TRUE'}"
            + f",  M ← {self.goal.guarantee_spec.name}",
        )

        closures, setup = self._setup_closures()
        cert.add(setup)
        if not setup.ok:
            return cert

        # the one exploration: E ∧ ⋀ M_j is this product plus fairness
        # (Proposition 1: C(M_j) is M_j minus fairness), which shapes no
        # state or edge and enters hypothesis 2b as premises only.  It
        # runs on the compact engine: every obligation reads the graph
        # through GraphQueries, and the packed expander walks the same
        # plan tree over the product's conjoined component actions
        graph = explore_compact(self._safety_product(closures),
                                max_states=self.max_states)

        for i, ag in enumerate(self.devices, start=1):
            cert.add(self._hypothesis1(i, ag, graph))

        cert.add(self._hypothesis2a(graph))
        cert.add(self._hypothesis2b(graph))
        return cert

    # -- step 0: closures (Propositions 1 and 2) -------------------------------

    def _setup_closures(self) -> Tuple[List[Spec], Obligation]:
        rules: List[PropositionReport] = []
        closures: List[Spec] = []
        for ag in self.all_parts:
            cspec, report = proposition1(ag.guarantee_spec)
            closures.append(cspec)
            if ag.guarantee_spec.fairness:
                rules.append(report)
        parts = [
            (ag.name, ag.internals, ag.guarantee_spec.formula().vars())
            for ag in self.all_parts
        ]
        target = (
            self.goal.name,
            self.goal.internals,
            self.goal.guarantee_spec.formula().vars(),
        )
        rules.append(proposition2(parts, target))
        ob = Obligation(
            "0",
            "compute closures C(M_j) and unhide internal variables",
            rules=rules,
            skipped_reason="reductions only; no model checking needed"
            if all(rule.ok for rule in rules) else None,
        )
        return closures, ob

    def _safety_product(self, closures: List[Spec]) -> Spec:
        specs: List[Spec] = []
        if self.goal.assumption is not None:
            specs.append(self.goal.assumption.without_fairness(
                name=f"C({self.goal.assumption.name})"
            ))
        specs.extend(closures)
        # NOTE: the product's universe is the merge of the *parts'*
        # universes only.  Merging in the goal's universe would add the
        # goal's internal variables (e.g. the big queue's q), which nothing
        # in the product constrains -- they would be enumerated freely at
        # every step, multiplying the state space for no semantic gain (the
        # refinement mapping supplies their values instead).
        return conjoin(specs, name="C(E) ∧ ⋀ C(M_j)")

    # -- hypothesis 1 ------------------------------------------------------------

    def _hypothesis1(self, index: int, ag: AGSpec,
                     graph: GraphQueries) -> Obligation:
        oid = f"1[{index}]"
        if ag.assumption is None:
            return Obligation(
                oid,
                f"C(E) ∧ ⋀ C(M_j) ⇒ E_{index}",
                skipped_reason=f"E_{index} is TRUE",
            )
        result = check_safety_refinement(
            graph,
            ag.assumption,
            mapping=IDENTITY,
            name=f"C(E) ∧ ⋀ C(M_j) ⇒ {ag.assumption.name}",
            max_states=self.max_states,
        )
        return Obligation(
            oid,
            f"C(E) ∧ ⋀ C(M_j) ⇒ {ag.assumption.name}",
            result=result,
        )

    # -- hypothesis 2(a) ------------------------------------------------------------

    def _hypothesis2a(self, graph: GraphQueries) -> Obligation:
        rules: List[PropositionReport] = []
        description = "C(E)+v ∧ ⋀ C(M_j) ⇒ C(M)"

        target_closure, prop1_report = proposition1(self.goal.guarantee_spec)
        if self.goal.guarantee_spec.fairness:
            rules.append(prop1_report)

        if self.goal.assumption is not None:
            # eliminate the +v via Propositions 3 and 4
            sub = self.plus_sub()
            rules.append(proposition3(self.goal.guarantee_formula(), sub))
            rules.append(self._orthogonality_report(graph))

        result = check_safety_refinement(
            graph,
            target_closure,
            mapping=self.mapping,
            name=f"C(E) ∧ ⋀ C(M_j) ⇒ C({self.goal.guarantee_spec.name})",
            max_states=self.max_states,
        )
        return Obligation("2a", description, rules=rules, result=result)

    def _orthogonality_report(self, graph: GraphQueries) -> PropositionReport:
        """``⋀ C(M_j) ⇒ C(E) ⊥ C(M)`` via Proposition 4 (Figure 9, step 2.1)."""
        assumption = self.goal.assumption
        assert assumption is not None
        goal_comp = self.goal.guarantee_component
        if goal_comp is not None:
            sys_owned: Sequence[str] = goal_comp.outputs
        else:
            sys_owned = self.goal.guarantee_spec.sub
        if self.disjoint is None:
            return PropositionReport(
                "Proposition 4",
                False,
                [
                    "no Disjoint condition supplied: cannot establish "
                    "C(E) ⊥ C(M) for an interleaving composition "
                    "(pass disjoint=DisjointSpec(...))"
                ],
            )
        report = proposition4(assumption.sub, sys_owned, self.disjoint)
        # initial disjunction, checked on the product's initial states with
        # the mapping supplying the goal's internal variables
        goal_universe = self.goal.guarantee_spec.universe
        details = list(report.details)
        ok = report.ok
        for node in graph.init_nodes:
            state = graph.states[node]
            env_ok = bool(assumption.init.eval_state(state))
            mapped = self.mapping.target_state(state, goal_universe)
            sys_ok = bool(self.goal.guarantee_spec.init.eval_state(mapped))
            if not (env_ok or sys_ok):
                ok = False
                details.append(f"initial disjunction fails at {state!r}")
                break
        else:
            details.append(
                "initial disjunction (∃x: Init_E) ∨ (∃y: Init_M) holds at "
                f"all {len(graph.init_nodes)} initial product states"
            )
        return PropositionReport("Proposition 4", ok, details)

    # -- hypothesis 2(b) ------------------------------------------------------------

    def _hypothesis2b(self, graph: GraphQueries) -> Obligation:
        specs: List[Spec] = []
        if self.goal.assumption is not None:
            specs.append(self.goal.assumption)
        specs.extend(ag.guarantee_spec for ag in self.all_parts)
        full_product = conjoin(specs, name="E ∧ ⋀ M_j")
        conclusion = self.goal.guarantee_spec.formula()
        result = check_temporal_implication(
            graph,
            conclusion,
            mapping=self.mapping,
            target_universe=self.goal.guarantee_spec.universe,
            premises=premises_of_spec(full_product),
            name=f"E ∧ ⋀ M_j ⇒ {self.goal.guarantee_spec.name}",
        )
        return Obligation("2b", "E ∧ ⋀ M_j ⇒ M", result=result)


def compose(
    components: Sequence[AGSpec],
    goal: AGSpec,
    disjoint: Optional[DisjointSpec] = None,
    mapping: Optional[RefinementMapping] = None,
    plus_sub: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
    max_states: int = 200_000,
) -> Certificate:
    """One-call façade: build the theorem instance and verify it."""
    return CompositionTheorem(
        components, goal, disjoint=disjoint, mapping=mapping,
        plus_sub=plus_sub, name=name, max_states=max_states,
    ).verify()


def refinement_corollary(
    assumption: Optional[Spec],
    impl: AGSpec,
    goal: AGSpec,
    mapping: Optional[RefinementMapping] = None,
    disjoint: Optional[DisjointSpec] = None,
    name: Optional[str] = None,
    max_states: int = 200_000,
) -> Certificate:
    """The Corollary of section 5: ``(E ⊳ M') ⇒ (E ⊳ M)`` for a fixed
    environment assumption ``E`` -- the correctness of refining a system
    whose environment does not change.

    Implemented as the Composition Theorem with the single component
    ``E ⊳ M'``; hypothesis 1 (``C(E) ∧ C(M') ⇒ E``) is then trivially
    discharged because ``E`` is a conjunct of the premise.
    """
    if impl.assumption is not assumption or goal.assumption is not assumption:
        raise ValueError(
            "the refinement corollary requires the same assumption object "
            "on the implementation and the goal"
        )
    return compose(
        [impl], goal, disjoint=disjoint, mapping=mapping,
        name=name or f"{impl.name} refines {goal.name}", max_states=max_states,
    )
