"""Checking engines: one spec language, two back ends.

The paper's finite-domain obligations can be decided more than one
way, and mature TLA+ tooling ships several engines over one spec
language (explicit TLC, symbolic Apalache).  This package is that
split for our checker, and the one place a *check* is executed:

* :class:`~repro.engine.explicit.ExplicitEngine` -- the explicit-state
  pipeline: exhaustive BFS in the mode
  :func:`~repro.engine.explicit.choose_mode` picks (compact, or on a
  resume the engine that wrote the level log), then every
  invariant and property decided on that one graph.  Definitive
  verdicts; cost grows with the reachable state count.
* :class:`~repro.engine.symbolic.SymbolicEngine` -- bounded model
  checking over a CNF translation solved by a small built-in CDCL
  solver.  Cost grows with the unrolling depth, not the state count,
  so it answers on specs whose domains blow the BFS budget -- but a
  clean run up to depth *k* is :data:`~repro.engine.result.UNKNOWN`,
  never HOLDS.

The CLI and the service each construct the engine a request asks for
at one site, after :func:`resolve_request` has turned the request's
names into a spec and obligations; what they do with the outcome is
presentation.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..kernel.expr import Expr
from .cnf import SymbolicUnsupported, Translation
from .explicit import CheckRun, ExplicitEngine, choose_mode
from .result import HOLDS, UNKNOWN, VIOLATION, EngineResult
from .sat import CdclBackend
from .stats import SolveStats
from .symbolic import DEFAULT_DEPTH, SymbolicEngine

__all__ = [
    "CheckRun",
    "EngineResult",
    "ExplicitEngine",
    "SymbolicEngine",
    "SolveStats",
    "SymbolicUnsupported",
    "Translation",
    "CdclBackend",
    "HOLDS",
    "VIOLATION",
    "UNKNOWN",
    "DEFAULT_DEPTH",
    "resolve_request",
    "choose_mode",
]


def resolve_request(
    module, spec_name: str, invariant_names: Iterable[str] = (),
    property_names: Iterable[str] = (),
) -> Tuple[object, str, List[Tuple[str, Expr]], List[Tuple[str, object]]]:
    """Turn a request's names into what an engine consumes:
    ``(spec, label, [(name, invariant Expr)], [(name, formula)])``.

    *module* is a parsed :class:`~repro.parser.TLAModule`; an unknown
    name raises ``KeyError`` and a definition of the wrong kind
    ``TypeError``, both before anything is explored.
    """
    return (module.spec(spec_name), f"{module.name}!{spec_name}",
            [(name, module.expr(name)) for name in invariant_names],
            [(name, module.formula(name)) for name in property_names])
