"""Engine-neutral verdict and result types.

Every checking engine -- explicit BFS in any of its modes, bounded
symbolic -- answers an obligation with an :class:`EngineResult`: a
three-valued verdict, an optional concrete counterexample, and the
engine's own statistics object.  The third verdict, :data:`UNKNOWN`,
is what makes the protocol honest about bounded methods: a depth-k
symbolic run that finds no violation has *not* proved the invariant,
and must never be reported as :data:`HOLDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..checker.results import Counterexample

__all__ = ["HOLDS", "VIOLATION", "UNKNOWN", "EngineResult"]

HOLDS = "holds"          # every reachable state satisfies the obligation
VIOLATION = "violation"  # a concrete counterexample was found
UNKNOWN = "unknown"      # no violation within the engine's bound; not a proof


@dataclass(frozen=True)
class EngineResult:
    """One obligation's outcome from one engine.

    ``depth`` is the bound at which the verdict was produced: the frame
    of the violation, or the exhausted bound for :data:`UNKNOWN`
    (``None`` for the unbounded explicit engine).
    """

    name: str
    verdict: str
    engine: str
    counterexample: Optional[Counterexample] = None
    stats: Optional[object] = None
    depth: Optional[int] = None
    notes: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, VIOLATION, UNKNOWN):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == VIOLATION) != (self.counterexample is not None):
            raise ValueError(
                "a violation needs a counterexample and vice versa")

    @property
    def ok(self) -> bool:
        """True only for a definite :data:`HOLDS` -- an UNKNOWN bound
        exhaustion is not a pass."""
        return self.verdict == HOLDS

    def summary(self) -> str:
        tag = {HOLDS: "OK", VIOLATION: "FAILED", UNKNOWN: "UNKNOWN"}
        extra = ""
        if self.depth is not None:
            extra = (f" (depth {self.depth})" if self.verdict != UNKNOWN
                     else f" (no violation within depth {self.depth}; "
                          f"not a proof)")
        return f"[{tag[self.verdict]}] {self.name}{extra}"
