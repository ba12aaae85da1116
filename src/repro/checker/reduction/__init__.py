"""State-space reduction: partial-order reduction.

:mod:`~repro.checker.reduction.independence` +
:mod:`~repro.checker.reduction.por` derive ⊥-independence between
transition classes from the paper's ``Disjoint`` shape and prune
successor expansion with ample/stubborn sets (invariant and deadlock
verdicts preserved; liveness/refinement auto-disable reduction).  They
are wired through the full-state explorer, the parallel coordinator,
checkpoints, stats, and the CLI.

Checking an invariant under POR -- which variables the reduction must
observe, and the unreduced re-exploration that makes a violation's
trace identical to a POR-off run -- is the check pipeline's policy:
:class:`repro.engine.ExplicitEngine` with ``por=True``.
"""

from __future__ import annotations

from .independence import Decomposition, TransitionClass, decompose
from .por import (
    EXPAND_AMPLE,
    EXPAND_FULL,
    AmpleReducer,
    ReductionConfig,
    build_reducer,
    proviso_successors,
)

__all__ = [
    "Decomposition",
    "TransitionClass",
    "decompose",
    "ReductionConfig",
    "AmpleReducer",
    "build_reducer",
    "proviso_successors",
    "EXPAND_FULL",
    "EXPAND_AMPLE",
]

