"""The bounded symbolic (BMC) checking engine.

``SymbolicEngine.check_invariant`` translates the spec once
(:class:`~repro.engine.cnf.Translation`), then runs the incremental
depth loop: for k = 0, 1, ... bound, assemble the depth-k CNF and hand
it to the SAT backend.  The transition encoding includes a stutter
disjunct, so frame k covers every state at BFS distance <= k and the
first satisfiable depth equals the level at which the explicit BFS
would find its first violating state -- which is what makes the
differential tests able to demand trace-length equality, not just
verdict agreement.

A satisfying assignment decodes frame by frame through
``PackedCodec.decode`` into a concrete
:class:`~repro.kernel.behavior.FiniteBehavior` that replays on the
concrete spec.  An unsatisfiable run up to the bound yields
:data:`~repro.engine.result.UNKNOWN` -- never HOLDS: bounded search
proves nothing about deeper states.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, List, Optional, Tuple

from ..checker.results import Counterexample
from ..kernel.behavior import FiniteBehavior
from ..kernel.expr import Expr
from .cnf import Translation
from .result import UNKNOWN, VIOLATION, EngineResult
from .sat import CdclBackend
from .stats import SolveStats

__all__ = ["SymbolicEngine", "DEFAULT_DEPTH"]

DEFAULT_DEPTH = 10


class SymbolicEngine:
    """Bounded model checking over the built-in CDCL solver.

    ``depth`` is the unrolling bound (``None`` = :data:`DEFAULT_DEPTH`);
    ``minimize`` binary-searches the smallest violating depth so the
    trace is a shortest counterexample.
    """

    name = "symbolic"

    def __init__(self, depth: Optional[int] = None,
                 minimize: bool = True) -> None:
        if depth is None:
            depth = DEFAULT_DEPTH
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self.minimize = minimize

    def check_invariant(self, spec, invariant: Expr,
                        name: Optional[str] = None,
                        stats: Optional[SolveStats] = None) -> EngineResult:
        """VIOLATION with a decoded trace, or UNKNOWN at the bound.

        Raises :class:`~repro.engine.cnf.SymbolicUnsupported` when the
        spec cannot be translated (unpackable universe, oversized leaf
        supports) -- callers fall back to the explicit engine.
        """
        label = name or f"invariant {invariant!r}"
        if stats is None:
            stats = SolveStats()
        solver = CdclBackend()
        with stats.phase("translate"):
            translation = Translation(spec, invariant)

        def solve_at(k: int):
            started = perf_counter()
            with stats.phase("translate"):
                num_vars, clauses = translation.assemble(k)
            with stats.phase("solve"):
                model = solver.solve(num_vars, clauses, stats)
            stats.record_depth(k, num_vars, len(clauses),
                               "sat" if model is not None else "unsat",
                               perf_counter() - started)
            return model

        # One solve at the bound decides violation-within-k: the stutter
        # disjunct makes frame k cover every state at distance <= k, so
        # satisfiability is monotone in the depth.  (Solving each depth
        # in turn would spend most of its time on the expensive UNSAT
        # refutations just below the violation level.)
        model = solve_at(self.depth)
        if model is None:
            return EngineResult(label, UNKNOWN, self.name, stats=stats,
                                depth=self.depth)
        best_depth = self.depth
        if self.minimize:
            # binary search the smallest satisfiable depth; by the same
            # monotonicity it equals the BFS level of the first violating
            # state, so the decoded trace is a shortest counterexample
            lo, hi = 0, self.depth
            while lo < hi:
                mid = (lo + hi) // 2
                candidate = solve_at(mid)
                if candidate is not None:
                    model, hi = candidate, mid
                else:
                    lo = mid + 1
            best_depth = hi
        stats.result_depth = best_depth
        frames = translation.decode_model(model, best_depth)
        trace = FiniteBehavior(tuple(_strip_stutter(frames)))
        cex = Counterexample(
            trace, f"state violates invariant {invariant!r}")
        return EngineResult(label, VIOLATION, self.name,
                            counterexample=cex, stats=stats,
                            depth=best_depth)

    def check_obligations(
        self, spec, obligations: Iterable[Tuple[str, Expr]],
        stats: Optional[SolveStats] = None,
    ) -> List[EngineResult]:
        """Check each named invariant obligation independently (one
        translation each), accumulating into one *stats*."""
        return [self.check_invariant(spec, expr, name=obligation_name,
                                     stats=stats)
                for obligation_name, expr in obligations]


def _strip_stutter(frames: List) -> List:
    """Drop consecutive duplicate frames (stutter padding), keeping the
    first occurrence; the result replays as real steps on the spec."""
    out = [frames[0]]
    for state in frames[1:]:
        if state != out[-1]:
            out.append(state)
    return out
