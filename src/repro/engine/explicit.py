"""The explicit-state check pipeline: explore once, decide every
obligation on that graph.

:class:`ExplicitEngine` holds the run options -- spelled once, here --
and :meth:`ExplicitEngine.run` is the one path from *(spec, invariants,
properties)* to *(graph, per-obligation results)*.  ``repro check |
explore`` render a run as text + manifest + exit code, the service's
``run_check`` as a JSON document, and
:meth:`ExplicitEngine.check_invariant` as an
:class:`~repro.engine.result.EngineResult`; none of them explores or
checks on its own.  Exhaustive exploration is definitive: HOLDS or
VIOLATION, never UNKNOWN.

What the pipeline owns:

* **the engine choice** -- :func:`choose_mode`, which both front ends
  call: the compact engine (packed rows, CSR edges) for every fresh
  check, and on a resume whichever engine wrote the level log.  Both
  produce the same graph bit for bit, so the choice changes memory and
  speed, never a verdict, trace or digest.  A spec the packed codec
  cannot represent runs on neither: exploring it raises
  :class:`~repro.kernel.packed.CompactUnsupported`;
* **dispatch** -- {full, compact} x {fresh, resume}, the only calls of
  the ``explore_*`` / ``resume*`` entry points outside
  :mod:`repro.checker`;
* **obligation policy** -- each graph type gets its invariant checker;
  properties are checked against the spec's fairness premises on
  either graph.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..checker import (
    CompactGraph,
    ExploreStats,
    check_invariant,
    check_invariant_compact,
    check_temporal_implication,
    explore_compact,
    explore_parallel,
    premises_of_spec,
    resume,
    resume_compact,
)
from ..checker.checkpoint import COMPACT_CHECKPOINT_MODE, checkpoint_mode
from ..checker.results import CheckResult
from ..kernel.expr import Expr
from .result import HOLDS, VIOLATION, EngineResult

__all__ = ["ExplicitEngine", "CheckRun", "choose_mode"]


def choose_mode(resume_from: Optional[str] = None) -> str:
    """The :class:`ExplicitEngine` mode a front end runs in.

    A fresh run is ``"compact"``.  Resuming the level log at
    *resume_from* continues it on the engine that wrote it (its
    header's ``mode``): ``"compact"``, or the full engine's
    ``"parallel"`` (serial at one worker).
    """
    if (resume_from is not None
            and checkpoint_mode(resume_from) != COMPACT_CHECKPOINT_MODE):
        return "parallel"
    return "compact"


class ExplicitEngine:
    """Exhaustive BFS in one of the existing modes, plus how to run it.

    ``mode`` selects the path: ``"serial"`` / ``"parallel"`` (the full
    dict-backed graph; serial is parallel with one worker) or
    ``"compact"`` (packed rows and CSR edges, traces regenerated on
    demand).  Every mode produces bit-for-bit identical graphs, so the
    verdicts and traces are mode-independent by construction.  Front
    ends pick the mode with :func:`choose_mode`.

    ``checkpoint`` / ``checkpoint_every`` / ``resume`` make the
    exploration durable; ``worker_timeout`` bounds a pool worker's
    chunk.

    A blown ``max_states`` budget raises
    :class:`~repro.checker.StateSpaceExplosion` out of every method;
    turning it into a verdict is the caller's presentation.
    """

    name = "explicit"

    def __init__(self, mode: str = "serial", max_states: int = 200_000,
                 workers: int = 1, *, checkpoint: Optional[str] = None,
                 checkpoint_every: int = 1, resume: bool = False,
                 worker_timeout: Optional[float] = None) -> None:
        if mode not in ("serial", "parallel", "compact"):
            raise ValueError(f"unknown explicit mode {mode!r}")
        if resume and not checkpoint:
            raise ValueError("resume needs the checkpoint to continue from")
        self.mode = mode
        self.max_states = max_states
        self.workers = workers
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.worker_timeout = worker_timeout

    def _explore(self, spec, stats: Optional[ExploreStats]):
        """The one exploration dispatch."""
        common = dict(max_states=self.max_states, stats=stats,
                      checkpoint_every=self.checkpoint_every,
                      workers=self.workers,
                      worker_timeout=self.worker_timeout)
        if self.mode == "compact":
            if self.resume:
                return resume_compact(self.checkpoint, spec, **common)
            return explore_compact(spec, checkpoint=self.checkpoint, **common)
        if self.resume:
            return resume(self.checkpoint, spec, **common)
        return explore_parallel(spec, checkpoint=self.checkpoint, **common)

    def run(self, spec, invariants: Iterable[Tuple[Optional[str], Expr]] = (),
            properties: Iterable[Tuple[str, object]] = (),
            stats: Optional[ExploreStats] = None) -> "CheckRun":
        """One trip through the pipeline; enter the returned
        :class:`CheckRun` to explore and check."""
        return CheckRun(self, spec, list(invariants), list(properties), stats)

    def check_invariant(self, spec, invariant: Expr,
                        name: Optional[str] = None,
                        stats: Optional[ExploreStats] = None) -> EngineResult:
        if stats is None:
            stats = ExploreStats()
        with self.run(spec, [(name, invariant)], stats=stats) as run:
            return self._results(run)[0]

    def check_obligations(
        self, spec, obligations: Iterable[Tuple[str, Expr]],
    ) -> List[EngineResult]:
        """Check every invariant obligation over ONE exploration."""
        with self.run(spec, obligations, stats=ExploreStats()) as run:
            return self._results(run)

    def _results(self, run: "CheckRun") -> List[EngineResult]:
        return [EngineResult(result.name, HOLDS if result.ok else VIOLATION,
                             self.name, counterexample=result.counterexample,
                             stats=run.stats, notes=tuple(result.notes))
                for _kind, result in run.results]


class CheckRun:
    """One pipeline run, as a context manager.

    Entering explores and checks: ``graph`` is the graph the verdicts
    were decided on, ``results`` the ``(kind, CheckResult)`` pairs in
    request order (``kind`` is ``"invariant"`` or ``"property"``).
    Leaving lets go of the graph -- as does every failure on the way
    in, so ``graph`` is ``None`` outside the ``with`` block.
    """

    def __init__(self, engine: ExplicitEngine, spec,
                 invariants: List[Tuple[Optional[str], Expr]],
                 properties: List[Tuple[str, object]],
                 stats: Optional[ExploreStats]) -> None:
        self.engine = engine
        self.spec = spec
        self.invariants = invariants
        self.properties = properties
        self.stats = stats
        self.graph = None
        self.results: List[Tuple[str, CheckResult]] = []

    @property
    def ok(self) -> bool:
        return all(result.ok for _kind, result in self.results)

    def close(self) -> None:
        """Let go of the graph."""
        self.graph = None

    def __enter__(self) -> "CheckRun":
        stats = self.stats
        self.graph = self.engine._explore(self.spec, stats)
        try:
            check = (check_invariant_compact
                     if isinstance(self.graph, CompactGraph)
                     else check_invariant)
            for name, expr in self.invariants:
                self.results.append(("invariant", check(
                    self.graph, expr, name=name, run_stats=stats)))
            # one premise list for the run: each fairness action is
            # compiled once, and its ENABLED memo serves every property
            premises = (premises_of_spec(self.spec) if self.properties
                        else [])
            for name, formula in self.properties:
                self.results.append(("property", check_temporal_implication(
                    self.graph, formula, premises=premises,
                    name=name, run_stats=stats)))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
