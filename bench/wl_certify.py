"""``certify``: the paper's own result, Composition Theorem certificates.

Five checks per round through ``composition_theorem().verify()``: three
certificates that must come back proved and two ``broken`` protocols
whose certificates must come back *not* proved, failing exactly in
hypotheses 2a and 2b.  The theorem object caches the graphs it explores,
so each check builds a fresh one from systems built during set-up.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import repro.checker.liveness as liveness_module
import repro.checker.refinement as refinement_module
import repro.core.composition as composition_module
from repro.systems.mutex import LamportMutex
from repro.systems.paxos import Paxos
from repro.systems.queue import DoubleQueue

from harness import Check, Outcome, SerialWorkload
from manifest import CERTIFY_SYSTEMS
from spans import Span, layer_self_times


def observe(certificate) -> Dict[str, object]:
    return {
        "ok": certificate.ok,
        "obligations": len(certificate.obligations),
        "failed": [ob.oid for ob in certificate.failed_obligations()],
        "states": certificate.total_states_explored(),
        "edges": sum(ob.result.stats.get("edges", 0)
                     for ob in certificate.obligations
                     if ob.result is not None),
    }


class CertifyWorkload(SerialWorkload):
    name = "certify"

    def build(self) -> None:
        systems = (DoubleQueue(2), LamportMutex(2, 3), Paxos(2, 2, 2),
                   Paxos(2, 2, 2, broken=True),
                   LamportMutex(2, 2, broken=True))
        self.systems = dict(zip(CERTIFY_SYSTEMS, systems))

    def wrap_seams(self) -> None:
        wrap = self.tracer.wrap
        wrap(composition_module, "check_safety_refinement",
             "checker.refinement.check")
        wrap(composition_module, "check_temporal_implication",
             "checker.liveness.check")
        for module in (composition_module, liveness_module,
                       refinement_module):
            wrap(module, "explore", "checker.full.explore")

    def checks(self) -> List[Check]:
        return [Check(name, self._runner(name), observe)
                for name in CERTIFY_SYSTEMS]

    def _runner(self, name: str):
        system = self.systems[name]

        def run():
            with self.tracer.span(f"core.composition.verify.{name}"):
                return system.composition_theorem().verify()

        return run

    def layers(self, spans: Sequence[Span],
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        own = layer_self_times(spans)
        out = {
            "checker.full.explore_s": own["checker.full.explore"],
            "checker.refinement.check_s": own["checker.refinement.check"],
            "checker.liveness.check_s": own["checker.liveness.check"],
            "core.certificate.obligations": sum(
                outcome.observed.get("obligations", 0)
                for outcome in outcomes),
            "checker.states": sum(outcome.observed.get("states", 0)
                                  for outcome in outcomes),
            "checker.edges": sum(outcome.observed.get("edges", 0)
                                 for outcome in outcomes),
        }
        for span in spans:
            prefix = "core.composition.verify."
            if span.name.startswith(prefix):
                out["core.composition.verify_s."
                    + span.name[len(prefix):]] = span.duration
        return out
