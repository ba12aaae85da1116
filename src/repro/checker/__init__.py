"""Explicit-state model checker for canonical TLA specifications.

Plays the role of the paper's hand proofs (see DESIGN.md): each proof
obligation of the Composition Theorem is discharged exhaustively over the
reachable state space of a finite instance.
"""

from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    manifest_path_for,
    resume,
    save_checkpoint,
    write_manifest,
)
from .compact import (
    CompactGraph,
    CompactUnsupported,
    check_invariant_compact,
    explore_compact,
    resume_compact,
)
from .digest import GraphDigest, digest_of_graph
from .explorer import StateSpaceExplosion, explore, initial_states
from .graph import StateGraph
from .invariants import check_deadlock_free, check_invariant
from .parallel import WorkerFailure, default_workers, explore_parallel
from .stats import ExploreStats
from .liveness import (
    ConclusionChecker,
    PremiseConstraint,
    check_temporal_implication,
    fair_units,
    premises_of_spec,
)
from .refinement import (
    IDENTITY, MappedGraph, RefinementMapping, check_safety_refinement,
)
from .results import CheckResult, Counterexample

__all__ = [
    "StateSpaceExplosion",
    "explore",
    "explore_parallel",
    "default_workers",
    "WorkerFailure",
    "initial_states",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "resume",
    "manifest_path_for",
    "write_manifest",
    "StateGraph",
    "CompactGraph",
    "CompactUnsupported",
    "explore_compact",
    "resume_compact",
    "check_invariant_compact",
    "GraphDigest",
    "digest_of_graph",
    "ExploreStats",
    "check_deadlock_free",
    "check_invariant",
    "ConclusionChecker",
    "PremiseConstraint",
    "check_temporal_implication",
    "fair_units",
    "premises_of_spec",
    "IDENTITY",
    "MappedGraph",
    "RefinementMapping",
    "check_safety_refinement",
    "CheckResult",
    "Counterexample",
]
