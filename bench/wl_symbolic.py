"""``symbolic``: bounded SAT checking, satisfiable and unsatisfiable.

Five checks per round through ``SymbolicEngine.check_invariant`` (the
stdlib CDCL backend).  Two find the level-7 bug of the 16.7M-state
``wide8`` spec as a minimal 8-state trace; two are pure UNSAT
refutations on correct protocols (the verdict must be ``unknown``, never
``holds``); one finds the broken mutex's violation at exactly its BFS
level without minimising.  Every violation trace is replayed on the
concrete spec after the clock stops.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import repro.engine.symbolic as symbolic_module
from repro.checker.explorer import initial_states
from repro.engine import CdclBackend, SymbolicEngine, Translation
from repro.kernel.action import compile_action
from repro.kernel.expr import And, Arith, Const, Eq, Not, Or, Var
from repro.kernel.state import Universe
from repro.kernel.values import FiniteDomain
from repro.spec import Spec
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos

from harness import Check, Outcome, SerialWorkload
from spans import Span, layer_self_times


def wide8() -> tuple:
    """Eight independent mod-8 counters: 8^8 states, and counter ``a``
    reaches 7 at BFS level 7."""
    names = tuple("abcdefgh")
    universe = Universe({name: FiniteDomain(range(8)) for name in names})

    def bump(name):
        return And(
            Eq(Var(name, primed=True), Arith("%", Arith("+", Var(name), 1), 8)),
            *[Eq(Var(other, primed=True), Var(other))
              for other in names if other != name])

    spec = Spec("wide8", And(*[Eq(Var(name), Const(0)) for name in names]),
                Or(*[bump(name) for name in names]), names, universe)
    return spec, Not(Eq(Var("a"), Const(7)))


def replays(spec, invariant, states) -> bool:
    """Is the trace a real behaviour prefix ending in a violation?"""
    plan = compile_action(spec.next_action).plan(spec.universe)
    return (states[0] in set(initial_states(spec.init, spec.universe))
            and all(post in set(plan.successors(pre))
                    for pre, post in zip(states, states[1:]))
            and invariant.eval_state(states[-1]) is False)


class SymbolicWorkload(SerialWorkload):
    name = "symbolic"

    def build(self) -> None:
        paxos, mutex = Paxos(2, 2, 2), LamportMutex(2, 2)
        broken = LamportMutex(2, 2, broken=True)
        wide = wide8()
        targets = {
            "paxos": (paxos.complete_spec(), paxos.agreement()),
            "mutex": (mutex.complete_spec(), mutex.mutual_exclusion()),
            "broken": (broken.complete_spec(), broken.mutual_exclusion()),
        }
        #: check id -> (spec, invariant, engine)
        self.recipes = {
            "wide8.depth8": (*wide, SymbolicEngine(depth=8)),
            "wide8.depth10": (*wide, SymbolicEngine(depth=10)),
            "paxos-2-2-2.depth6": (*targets["paxos"],
                                   SymbolicEngine(depth=6)),
            "mutex-2-2.depth8": (*targets["mutex"], SymbolicEngine(depth=8)),
            "mutex-2-2-broken.depth12": (
                *targets["broken"],
                SymbolicEngine(depth=12, minimize=False)),
        }

    def wrap_seams(self) -> None:
        wrap = self.tracer.wrap
        wrap(symbolic_module, "Translation", "engine.cnf.translate")
        wrap(Translation, "assemble", "engine.cnf.translate")
        wrap(CdclBackend, "solve", "engine.sat.solve")

    def checks(self) -> List[Check]:
        return [Check(check_id, self._runner(check_id),
                      self._observer(check_id))
                for check_id in self.recipes]

    def _runner(self, check_id: str):
        spec, invariant, engine = self.recipes[check_id]

        return lambda: engine.check_invariant(spec, invariant)

    def _observer(self, check_id: str):
        spec, invariant, _engine = self.recipes[check_id]

        def observe(result) -> Dict[str, object]:
            observed = {"verdict": result.verdict, "depth": result.depth,
                        "trace_len": None,
                        "variables": result.stats.variables,
                        "clauses": result.stats.clauses,
                        "conflicts": result.stats.conflicts,
                        "propagations": result.stats.propagations}
            if result.counterexample is not None:
                states = list(result.counterexample.states())
                observed["trace_len"] = len(states)
                observed["replays"] = replays(spec, invariant, states)
            return observed

        return observe

    def layers(self, spans: Sequence[Span],
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        own = layer_self_times(spans)
        solve_s = own["engine.sat.solve"]
        out = {"engine.cnf.translate_s": own["engine.cnf.translate"],
               "engine.sat.solve_s": solve_s}
        for key in ("variables", "clauses"):
            out[f"engine.cnf.{key}"] = sum(
                outcome.observed.get(key, 0) for outcome in outcomes)
        for key in ("conflicts", "propagations"):
            out[f"engine.sat.{key}"] = sum(
                outcome.observed.get(key, 0) for outcome in outcomes)
        out["engine.sat.propagations_per_s"] = \
            out["engine.sat.propagations"] / solve_s if solve_s else 0.0
        return out
