"""Durable exploration runs: checkpoint, resume, and run manifests.

TLC treats checkpointing as table stakes for industrial model checking --
a multi-hour run must survive an OOM kill, a pre-empted machine, or an
operator ctrl-C.  This module gives our explorer the same durability:

* :func:`save_checkpoint` writes a **versioned, portable** snapshot of a
  run in flight -- the :class:`~repro.checker.graph.StateGraph` built so
  far (states in node order with their process-stable fingerprints,
  adjacency lists in insertion order, the BFS parent tree, the
  real-vs-stutter edge split), the frontier still to expand, the BFS
  depth, and the cumulative :class:`~repro.checker.stats.ExploreStats`
  counters.  Writes are atomic (write-temp-then-``os.replace``), so a
  crash *during* checkpointing leaves the previous snapshot intact.
* :func:`load_checkpoint` / :func:`resume` reload a snapshot and continue
  the run **bit-for-bit identically** to an uninterrupted one: same node
  numbering, same adjacency order, same parents, hence the same
  counterexample traces and the same
  :class:`~repro.checker.graph.StateSpaceExplosion` insertion point.
  The determinism argument is short: checkpoints are taken only at BFS
  level boundaries, the restored graph is bit-identical to the live one
  at that boundary, and a BFS level expansion is a pure function of
  (graph, frontier) -- see DESIGN.md 4d and 4l.
* Both engines share one **envelope**: :func:`_write_envelope` puts the
  common header around an engine-specific body (``"graph"`` here,
  ``"compact"`` for :mod:`repro.checker.compact`), and
  :func:`read_checkpoint` is the one reader -- it validates every type
  and range a resume relies on, so a malformed or hostile file is a
  :class:`CheckpointError`, never a traceback.
* :func:`write_manifest` emits a small JSON run manifest (spec name,
  budget, worker count, wall time, outcome, rendered counterexample if
  any) next to the checkpoint -- the machine-readable artifact CI
  uploads per run.

States are serialized with the tagged JSON encoding of
:func:`repro.kernel.state.value_to_portable` (no pickle), so checkpoint
files are stable across interpreter processes and ``PYTHONHASHSEED``
values.  The spec itself *is* embedded as a pickle (base64) purely as a
convenience so ``resume(path)`` works standalone; passing ``spec=``
explicitly to :func:`resume` skips it entirely.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..kernel.state import State, value_to_portable
from ..spec import Spec
from .graph import StateGraph
from .results import Counterexample
from .stats import ExploreStats

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "COMPACT_CHECKPOINT_MODE",
    "CheckpointError",
    "Checkpoint",
    "save_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
    "resume",
    "manifest_path_for",
    "write_manifest",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: The ``mode`` tag compact checkpoints carry (full ones carry none), so
#: the two engines can refuse each other's snapshots with a usable error.
COMPACT_CHECKPOINT_MODE = "compact"

# mode tag -> the payload key holding that engine's body
_BODY_KEY = {None: "graph", COMPACT_CHECKPOINT_MODE: "compact"}

# resume()'s "keep writing to the file we loaded from" default
_SAME_PATH = object()

# resume()'s "adopt whatever the checkpoint recorded" default for the
# reduction / store configurations (None is a meaningful explicit value:
# "I want this run unreduced / in-RAM", which must *match* the snapshot)
_ADOPT = object()


class CheckpointError(Exception):
    """A checkpoint file is missing, malformed, or fails integrity checks."""


def _atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    """Serialize *payload* to *path* via write-temp-then-rename.

    ``os.replace`` is atomic on POSIX and Windows, so readers (and a
    crash mid-write) only ever observe the old complete file or the new
    complete file, never a truncated one.
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _write_envelope(path: str, mode: Optional[str], spec: Spec, graph,
                    body: Dict[str, object], frontier: Sequence[int],
                    depth: int, levels: int, elapsed_seconds: float,
                    workers: int, checkpoint_every: int,
                    stats: Optional[ExploreStats],
                    *sections: Optional[Dict[str, object]]) -> None:
    """Atomically write one snapshot: the header every engine shares
    around the engine's own *body*, then any further top-level
    *sections* (the full engine's reduction/store record, the
    distributed coordinator's level manifest -- readers keep unknown
    sections on ``Checkpoint.payload`` and otherwise ignore them)."""
    payload: Dict[str, object] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
    }
    if mode is not None:
        payload["mode"] = mode
    payload.update({
        "spec_name": spec.name,
        "spec_pickle": base64.b64encode(
            pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
        "max_states": graph.max_states,
        "workers": workers,
        "checkpoint_every": checkpoint_every,
        "depth": depth,
        "levels": levels,
        "elapsed_seconds": elapsed_seconds,
        _BODY_KEY[mode]: body,
        "frontier": list(frontier),
        "stats": stats.as_dict() if stats is not None else None,
    })
    for section in sections:
        if section:
            payload.update(section)
    _atomic_write_json(path, payload)


def save_checkpoint(
    path: str,
    spec: Spec,
    graph: StateGraph,
    frontier: Sequence[int],
    depth: int,
    levels: int,
    elapsed_seconds: float,
    workers: int = 1,
    checkpoint_every: int = 1,
    stats: Optional[ExploreStats] = None,
    reduction: Optional[Dict[str, object]] = None,
    store: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Atomically snapshot a run at a BFS level boundary.

    ``depth`` is the stats-visible frontier depth so far, ``levels`` the
    number of completed expansion rounds (the checkpoint cadence
    counter), ``frontier`` the node ids still to expand -- exactly the
    loop state of :func:`repro.checker.bfs.drive` between two levels.
    ``reduction`` / ``store`` are the effective
    partial-order-reduction and state-store configurations of the run
    (``ReductionConfig.as_dict()`` / ``StateStore.config()``), recorded
    so :func:`resume` continues under the *same* semantics -- resuming a
    reduced run unreduced (or vice versa) would not reproduce the run.
    Spill-store states are re-interned from this snapshot on resume, so
    the snapshot is self-contained even if the spill files are lost.
    ``extra`` merges additional top-level sections into the payload.
    """
    variables = list(graph.universe.variables)
    rows: List[List[object]] = []
    fingerprints: List[str] = []
    for state in graph.states:
        rows.append([value_to_portable(state[name]) for name in variables])
        fingerprints.append(format(state.fingerprint(), "016x"))
    body = {
        "variables": variables,
        "states": rows,
        "fingerprints": fingerprints,
        # stutter self-loops are implied (one per node, always first
        # in the adjacency list); only the real N-edges are stored
        "succ": [adj[1:] for adj in graph.succ],
        "parent": graph.parent,
        "init_nodes": graph.init_nodes,
    }
    _write_envelope(path, None, spec, graph, body, frontier, depth, levels,
                    elapsed_seconds, workers, checkpoint_every, stats,
                    {"reduction": reduction, "store": store}, extra)


class Checkpoint:
    """A loaded checkpoint of either engine: the validated envelope,
    plus the engine's own ``body`` (``mode`` says which engine's)."""

    __slots__ = ("path", "payload", "mode", "spec_name", "max_states",
                 "workers", "checkpoint_every", "depth", "levels",
                 "elapsed_seconds", "frontier", "stats_snapshot",
                 "reduction_config", "store_config", "body", "_spec_pickle")

    def __init__(self, path: str, payload: Dict[str, object]):
        self.path = path
        self.payload = payload
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path}: not a {CHECKPOINT_FORMAT} file "
                f"(format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        self.mode: Optional[str] = payload.get("mode")
        try:
            self.spec_name: str = payload["spec_name"]
            self.max_states: Optional[int] = payload["max_states"]
            self.workers: int = payload["workers"]
            self.checkpoint_every: int = payload["checkpoint_every"]
            self.depth: int = payload["depth"]
            self.levels: int = payload["levels"]
            self.elapsed_seconds: float = payload["elapsed_seconds"]
            self.frontier: List[int] = payload["frontier"]
            self.body: Dict[str, object] = payload[_BODY_KEY[self.mode]]
            self._spec_pickle: str = payload["spec_pickle"]
            self.stats_snapshot: Optional[Dict[str, object]] = \
                payload.get("stats")
            # pre-reduction checkpoints carry neither key: both read as
            # None, meaning "full exploration, in-RAM store"
            self.reduction_config: Optional[Dict[str, object]] = \
                payload.get("reduction")
            self.store_config: Optional[Dict[str, object]] = \
                payload.get("store")
            self._validate()
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"{path}: missing or malformed field ({exc!r})") from None

    def _validate(self) -> None:
        """Types and ranges of everything a resume indexes or counts
        with, checked once for both engines: a malformed file is a
        :class:`CheckpointError`, never a traceback from deep inside a
        restore or a run quietly continued from garbage."""
        def need(ok: bool, what: str) -> None:
            if not ok:
                raise CheckpointError(
                    f"{self.path}: malformed checkpoint: {what}")

        def natural(value: object, lowest: int = 0) -> bool:
            return type(value) is int and value >= lowest

        need(natural(self.workers), "workers must be an integer >= 0")
        need(natural(self.checkpoint_every, 1),
             "checkpoint_every must be an integer >= 1")
        need(natural(self.depth) and natural(self.levels),
             "depth and levels must be integers >= 0")
        need(self.max_states is None or natural(self.max_states),
             "max_states must be null or an integer >= 0")
        need(type(self.elapsed_seconds) in (int, float),
             "elapsed_seconds must be a number")
        need(isinstance(self._spec_pickle, str),
             "spec_pickle must be a string")
        for name in ("stats", "reduction", "store"):
            need(isinstance(self.payload.get(name), (dict, type(None))),
                 f"{name} must be null or an object")
        body = self.body
        need(isinstance(body, dict), "the engine body must be an object")
        compact = self.mode == COMPACT_CHECKPOINT_MODE
        column = body["packed" if compact else "states"]
        need(isinstance(column, list), "the state column must be a list")
        count = len(column)

        def ids(name: str, values: object, lowest: int = 0) -> None:
            need(isinstance(values, list)
                 and all(type(v) is int and lowest <= v < count
                         for v in values),
                 f"{name} must list node ids in {lowest}..{count - 1}")

        ids("frontier", self.frontier)
        ids("init_nodes", body["init_nodes"])
        parent = body["parent"]
        need(isinstance(parent, list) and len(parent) == count,
             "parent must have one entry per state")
        if compact:
            ids("parent", parent, -1)
            need(all(natural(value) for value in column),
                 "packed states must be integers >= 0")
            need(natural(body["edge_count"]),
                 "edge_count must be an integer >= 0")
            digest = body["digest"]
            need(isinstance(digest, list) and len(digest) == 4
                 and all(natural(x) and x < 1 << 64 for x in digest),
                 "digest must be four unsigned 64-bit integers")
            need(isinstance(body["codec_signature"], str),
                 "codec_signature must be a string")
        else:
            ids("parent", [p for p in parent if p is not None])
            need(isinstance(body["variables"], list),
                 "variables must be a list")
            for name in ("fingerprints", "succ"):
                need(isinstance(body[name], list)
                     and len(body[name]) == count,
                     f"{name} must have one entry per state")
            for row in body["succ"]:
                ids("succ", row)

    def load_spec(self) -> Spec:
        """Unpickle the embedded spec (for a standalone resume)."""
        try:
            return pickle.loads(base64.b64decode(self._spec_pickle))
        except Exception as exc:
            raise CheckpointError(
                f"{self.path}: embedded spec cannot be unpickled ({exc}); "
                f"pass the spec to the resume call explicitly"
            ) from exc

    def restore_stats(self, stats: Optional[ExploreStats]) -> None:
        """Reload the cumulative counters the interrupted run recorded."""
        if stats is not None and self.stats_snapshot:
            stats.restore(self.stats_snapshot)

    def restore_graph(self, spec: Spec,
                      max_states: Optional[int] = None,
                      store: object = None) -> StateGraph:
        """Rebuild the full-engine graph against *spec*'s universe,
        verifying that the stored variables match and that every decoded
        state reproduces its stored fingerprint (corruption /
        encoding-drift detection).

        *store* is the :class:`~repro.checker.reduction.store.StateStore`
        to re-intern the states through (default: fresh in-RAM store);
        spill stores rebuild their data/index files from the snapshot, so
        resuming never depends on the old spill files surviving."""
        data = self.body
        variables = list(data["variables"])
        if variables != list(spec.universe.variables):
            raise CheckpointError(
                f"{self.path}: checkpoint variables {variables} do not match "
                f"spec {spec.name!r} variables {list(spec.universe.variables)}"
            )
        states: List[State] = []
        for node, row in enumerate(data["states"]):
            try:
                state = State.from_portable(dict(zip(variables, row)))
            except (TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{self.path}: state {node} cannot be decoded "
                    f"({exc})") from None
            expected = data["fingerprints"][node]
            actual = format(state.fingerprint(), "016x")
            if actual != expected:
                raise CheckpointError(
                    f"{self.path}: state {node} fingerprint mismatch "
                    f"({actual} != stored {expected}); the checkpoint is "
                    f"corrupt or was written by an incompatible encoder"
                )
            states.append(state)
        return StateGraph.restore(
            spec.universe,
            states,
            data["succ"],
            data["parent"],
            data["init_nodes"],
            max_states=self.max_states if max_states is None else max_states,
            name=spec.name,
            store=store,
        )


# read_checkpoint()'s "either engine's snapshot will do"
_ANY_MODE = object()


def read_checkpoint(path: str, mode: object = _ANY_MODE) -> Checkpoint:
    """The one validating reader: parse *path*, check the envelope, and
    refuse a snapshot written by the other engine than *mode* (``None``
    is the full engine) -- the two are not interchangeable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    loaded = Checkpoint(path, payload)
    if mode is not _ANY_MODE and loaded.mode != mode:
        if loaded.mode == COMPACT_CHECKPOINT_MODE:
            raise CheckpointError(
                f"{path}: checkpoint was written by the compact engine; "
                f"resume it with --compact "
                f"(repro.checker.compact.resume_compact)")
        raise CheckpointError(
            f"{path}: checkpoint was written by the full-state engine; "
            f"resume it without --compact (the two engines' snapshots "
            f"are not interchangeable)")
    return loaded


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and validate a full-engine checkpoint file."""
    return read_checkpoint(path, None)


def _reduction_dict(reduction: object) -> Optional[Dict[str, object]]:
    """Normalize a ReductionConfig-or-dict-or-None to the as_dict form."""
    if reduction is None or isinstance(reduction, dict):
        return reduction
    return reduction.as_dict()  # a ReductionConfig


def _store_kind(config: Optional[Dict[str, object]]) -> str:
    return "mem" if config is None else str(config.get("kind", "mem"))


def resume(
    path: str,
    spec: Optional[Spec] = None,
    *,
    workers: Optional[int] = None,
    max_states: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    checkpoint: object = _SAME_PATH,
    checkpoint_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    fault_hook: object = None,
    reduction: object = _ADOPT,
    store: object = _ADOPT,
) -> StateGraph:
    """Continue an exploration from a checkpoint, bit-for-bit.

    The restored run picks up at the stored BFS level boundary and
    produces exactly the graph an uninterrupted run would have: same
    numbering, adjacency, parents, traces, and budget behaviour.

    *spec* defaults to the pickle embedded in the checkpoint; *workers*,
    *max_states*, and *checkpoint_every* default to the stored values
    (pass ``max_states`` explicitly to continue an exploded run under a
    larger budget).  By default the resumed run keeps checkpointing to
    the same *path*; pass ``checkpoint=None`` to disable further
    snapshots, or another path to redirect them.

    The run's partial-order-reduction and state-store semantics are
    adopted from the snapshot by default.  Passing ``reduction`` (a
    :class:`~repro.checker.reduction.por.ReductionConfig`, its dict
    form, or ``None`` for "unreduced") or ``store`` (a
    ``StateStore.config()`` dict, or ``None`` for in-RAM) asserts what
    the caller *expects* the run to be: a mismatch with the snapshot
    raises :class:`CheckpointError` instead of silently continuing the
    run under different semantics, which would not reproduce it.  For a
    spill store the directory/capacity may differ (the files are rebuilt
    from the snapshot); only the store *kind* must match.
    """
    start = perf_counter()
    from .bfs import drive, resolve_options
    from .explorer import FullEngine, _resolve_reducer
    from .parallel import local_level
    from .reduction.por import ReductionConfig
    from .reduction.store import build_store

    loaded = load_checkpoint(path)
    options = resolve_options(workers, worker_timeout, fault_hook,
                              checkpoint, checkpoint_every, resumed=loaded)
    if spec is None:
        spec = loaded.load_spec()

    if reduction is _ADOPT:
        reduction_cfg = loaded.reduction_config
    else:
        reduction_cfg = _reduction_dict(reduction)
        if reduction_cfg != loaded.reduction_config:
            raise CheckpointError(
                f"{path}: checkpoint was written with reduction config "
                f"{loaded.reduction_config!r} but the resume requested "
                f"{reduction_cfg!r}; resuming under different reduction "
                f"semantics would not reproduce the run"
            )
    store_cfg: Optional[Dict[str, object]]
    if store is _ADOPT:
        store_cfg = loaded.store_config
    else:
        store_cfg = store  # type: ignore[assignment]
        if _store_kind(store_cfg) != _store_kind(loaded.store_config):
            raise CheckpointError(
                f"{path}: checkpoint was written with a "
                f"{_store_kind(loaded.store_config)!r} state store but the "
                f"resume requested {_store_kind(store_cfg)!r}; pick one or "
                f"drop the flag to adopt the checkpoint's store"
            )
    reducer_config = (
        ReductionConfig(tuple(reduction_cfg.get("observed_vars", ())))
        if reduction_cfg is not None else None)

    run_store = build_store(store_cfg)
    # close the store we just built on any error path: a resume that
    # explodes (or crashes) never hands the graph back, so this is the
    # only chance to release a spill store's mmap/file handles
    try:
        graph = loaded.restore_graph(spec, max_states=max_states,
                                     store=run_store)
        loaded.restore_stats(stats)
        engine = FullEngine(spec, graph,
                            _resolve_reducer(spec, reducer_config, stats))
        return drive(local_level(engine, stats, options),
                     list(loaded.frontier), start, loaded)
    except BaseException:
        run_store.close()
        raise


# -- run manifests -----------------------------------------------------------


def manifest_path_for(checkpoint_path: str) -> str:
    """The manifest's conventional location: next to the checkpoint."""
    return checkpoint_path + ".manifest.json"


def counterexample_to_portable(cex: Counterexample) -> Dict[str, object]:
    """A JSON-serializable rendition of a counterexample trace."""
    payload: Dict[str, object] = {
        "reason": cex.reason,
        "kind": "lasso" if cex.is_lasso else "finite",
        "states": [state.to_portable() for state in cex.states()],
        "rendered": cex.render(),
    }
    if cex.is_lasso:
        payload["loop_start"] = cex.trace.loop_start
    return payload


def write_manifest(
    path: str,
    *,
    spec_name: str,
    max_states: Optional[int],
    workers: int,
    wall_seconds: float,
    outcome: str,
    states: Optional[int] = None,
    edges: Optional[int] = None,
    counterexample: Optional[Counterexample] = None,
    stats: Optional[ExploreStats] = None,
    error: Optional[str] = None,
    reduction: Optional[Dict[str, object]] = None,
    store: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Atomically write a JSON run manifest; returns the payload.

    *outcome* is one of ``"ok"`` (all checks passed / exploration
    completed), ``"violation"`` (a counterexample was found),
    ``"explosion"`` (the state budget was exceeded), or ``"error"``.
    ``reduction`` / ``store`` record the *effective* reduction and
    state-store configuration of the run (after any auto-disable), so
    the artifact says what semantics actually produced the verdict.
    """
    payload: Dict[str, object] = {
        "format": "repro-run-manifest",
        "version": CHECKPOINT_VERSION,
        "spec": spec_name,
        "max_states": max_states,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "outcome": outcome,
        "states": states,
        "edges": edges,
        "counterexample": (counterexample_to_portable(counterexample)
                           if counterexample is not None else None),
        "stats": stats.as_dict() if stats is not None else None,
        "error": error,
        "reduction": reduction,
        "store": store,
    }
    _atomic_write_json(path, payload)
    return payload
