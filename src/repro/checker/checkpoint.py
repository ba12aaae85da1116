"""Durable exploration runs: the checkpoint level log, resume, manifests.

TLC treats checkpointing as table stakes for industrial model checking --
a multi-hour run must survive an OOM kill, a pre-empted machine, or an
operator ctrl-C.  This module gives our explorer the same durability at
the cost of the rows a run interns, not of the graph it has so far:

* A checkpoint is an append-only **level log** (:class:`LevelLog`): a
  magic line, one header frame (format, version, spec name, the
  engine's variables or codec signature, budget, cadence), then one
  frame per snapshot.  A
  snapshot's record holds only what the level boundary added: the rows,
  fingerprints and parents interned since the previous record, the
  adjacency of the sources expanded since then -- both engines keep
  their edges -- (BFS expands in node-id order, so both are contiguous
  id ranges), the frontier, the ``depth`` / ``levels`` / elapsed
  counters and the cumulative stats.  A run's checkpoint I/O is
  therefore O(states), however many levels it snapshots.
* The frames are :mod:`repro.records`' checked frames, and every
  append is ``fsync``'d.  Every run, fresh or resumed, writes the header
  together with its first record through
  :func:`~repro.records.atomic_replace`, so it *replaces* an old log at
  the same path and never appends to one.
* :func:`read_checkpoint` is the one reader: it folds the records into
  the run's state at the last complete one, drops a torn final frame
  (the residue of a crash mid-append, the rule of every record log),
  and fails closed with a :class:`CheckpointError` on anything else --
  a bad checksum, a gap between records, a type or range a resume
  would index with.
* :func:`resume` (and its compact twin) continue a run
  **bit-for-bit**: same node numbering, adjacency order, parents,
  traces, and :class:`~repro.checker.graph.StateSpaceExplosion`
  insertion point.  Levels are pure functions of (graph, frontier) and
  the fold rebuilds both exactly -- see DESIGN.md 4d and 4l.  A resumed
  run's first record holds the whole restored graph and replaces the
  log it was read from; its later records append as a fresh run's do.
* :func:`write_manifest` emits a small JSON run manifest next to the
  checkpoint -- the machine-readable artifact CI uploads per run.

Everything in the file is JSON: states use the tagged encoding of
:func:`repro.kernel.state.value_to_portable`, so bytes are stable across
processes and ``PYTHONHASHSEED`` values.  The spec is not in the file;
every resume takes it from the caller and checks it against the
header's variables (or codec signature).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from .. import records
from ..kernel.packed import PackedCodec
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
    "LevelLog",
    "run_header",
    "save_checkpoint",
    "read_checkpoint",
    "checkpoint_mode",
    "load_checkpoint",
    "resume",
    "manifest_path_for",
    "write_manifest",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2

#: The ``mode`` tag compact checkpoints carry (full ones carry ``null``),
#: so the two engines can refuse each other's snapshots with a usable
#: error.
COMPACT_CHECKPOINT_MODE = "compact"

# the first bytes of every level log
_MAGIC = b"repro-checkpoint level log\n"

# resume()'s "keep writing to the file we loaded from" default
_SAME_PATH = object()


class CheckpointError(Exception):
    """A checkpoint file is missing, malformed, or fails integrity checks."""


# -- writing -----------------------------------------------------------------


def run_header(spec_name: str, max_states: Optional[int], workers: int,
               checkpoint_every: int,
               engine: Dict[str, object]) -> Dict[str, object]:
    """A level log's header: what identifies the run, then the engine's
    own fields (``mode``, and ``variables`` or ``codec_signature``)."""
    header: Dict[str, object] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "mode": None,
        "spec_name": spec_name,
        "max_states": max_states,
        "workers": workers,
        "checkpoint_every": checkpoint_every,
    }
    header.update(engine)
    return header


def graph_header(graph: StateGraph) -> Dict[str, object]:
    """The full engine's header fields."""
    return {"variables": list(graph.universe.variables)}


def graph_rows(graph: StateGraph, nodes: range,
               sources: range) -> Dict[str, object]:
    """The full engine's share of one record: portable rows,
    fingerprints and parents (``-1``: initial) of *nodes*, and the
    adjacency of *sources* without the implied stutter self-loop."""
    variables = graph.universe.variables
    states = graph.states
    rows: List[List[object]] = []
    fingerprints: List[str] = []
    for node in nodes:
        state = states[node]
        rows.append([value_to_portable(state[name]) for name in variables])
        fingerprints.append(format(state.fingerprint(), "016x"))
    parent = graph.parent
    return {
        "states": rows,
        "fingerprints": fingerprints,
        "parent": [-1 if parent[node] is None else parent[node]
                   for node in nodes],
        "succ": [graph.succ[src][1:] for src in sources],
    }


class LevelLog:
    """The writer of one run's level log at *path*.

    The first :meth:`append` writes the magic, the *header* and the
    record in one atomic replace -- so every run, fresh or resumed,
    starts a new log, and a resumed run's first record holds the whole
    restored graph; later appends add a frame and ``fsync`` it.

    The cursors say what the file already holds -- ``nodes`` interned,
    ``sources`` whose adjacency is stored, per-level ``level_rows`` of
    the stats -- so each record carries only what came after them."""

    def __init__(self, path: str, header: Dict[str, object]):
        self.path = path
        self._header = header
        self._started = False
        self.nodes = self.sources = self.level_rows = 0

    def append(self, record: Dict[str, object]) -> None:
        """Make *record* durable."""
        if not self._started:
            records.atomic_replace(
                self.path, _MAGIC + records.frame(self._header)
                + records.frame(record), fsync=True)
            self._started = True
            return
        records.append(self.path, _MAGIC, record, fsync=True)

    def append_level(self, graph, rows: Callable[[range, range], Dict],
                     frontier: Sequence[int], depth: int, levels: int,
                     elapsed_seconds: float,
                     stats: Optional[ExploreStats]) -> None:
        """Append the record of one level boundary of a BFS over
        *graph*.  *rows* is the engine's ``snapshot`` hook: the engine's
        share of the record for a range of new nodes and a range of newly
        expanded sources.  BFS expands in node-id order and the frontier
        is the last level's new nodes, so the frontier is the tail of the
        node ids, stored as the pair ``[first, end)``, and every node
        below it has been expanded."""
        count = graph.state_count
        first = count - len(frontier)
        if frontier and (frontier[0] != first or frontier[-1] != count - 1
                         or first < self.sources):
            raise ValueError(
                f"a level log stores the frontier as the unexpanded tail "
                f"of the node ids; {frontier[0]}..{frontier[-1]} is not "
                f"{max(first, self.sources)}..{count - 1}")
        record: Dict[str, object] = {"nodes_from": self.nodes}
        record.update(rows(range(self.nodes, count),
                           range(self.sources, first)))
        snapshot = None
        if stats is not None:
            snapshot = stats.as_dict()
            snapshot["levels"] = snapshot["levels"][self.level_rows:]
        record.update({
            "frontier": [first, count],
            "depth": depth,
            "levels": levels,
            "elapsed_seconds": elapsed_seconds,
            "stats": snapshot,
        })
        self.append(record)
        self.nodes, self.sources = count, first
        if stats is not None:
            self.level_rows = len(stats.levels)


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
) -> None:
    """Write a fresh level log holding *graph* as one record: the
    header, then every state, and the adjacency of every node below the
    *frontier* -- the unexpanded tail of the node ids, empty for a
    finished run.

    ``depth`` is the stats-visible frontier depth so far, ``levels`` the
    number of completed expansion rounds (the checkpoint cadence
    counter) -- the loop state of :func:`repro.checker.bfs.drive`
    between two levels."""
    header = run_header(spec.name, graph.max_states, workers,
                        checkpoint_every, graph_header(graph))
    LevelLog(path, header).append_level(
        graph, lambda nodes, sources: graph_rows(graph, nodes, sources),
        frontier, depth, levels, elapsed_seconds, stats)


# -- reading -----------------------------------------------------------------


def _natural(value: object, lowest: int = 0) -> bool:
    return type(value) is int and value >= lowest


class Checkpoint:
    """A loaded level log, folded: the header's run identity, the node
    columns every record appended, and the loop state of the last
    complete record.

    ``parent`` uses ``-1`` for initial states and ``succ`` holds the
    adjacency of the expanded sources (stutter loop implied) in both
    engines; the full engine's rows are ``states`` (portable rows) and
    ``fingerprints``, the compact engine's are ``packed``, plus the
    running ``edge_count`` and ``digest``.  A full header's ``store``
    field, written while the spill store existed, is ignored: every
    full run interns in RAM.  A full header's non-null ``reduction``
    field marks a log written under partial-order reduction, which is
    gone: such a log is refused.  ``frontier`` lists the node ids the
    last record left unexpanded."""

    def __init__(self, path: str, header: Dict[str, object],
                 frames: List[object]):
        self.path = path
        self.header = header
        self.mode: Optional[str] = header.get("mode")
        try:
            self.spec_name: str = header["spec_name"]
            self.max_states: Optional[int] = header["max_states"]
            self.workers: int = header["workers"]
            self.checkpoint_every: int = header["checkpoint_every"]
            compact = self.mode == COMPACT_CHECKPOINT_MODE
            self.need(compact or self.mode is None,
                      f"unknown mode {self.mode!r}")
            self.need(isinstance(self.spec_name, str),
                      "spec_name must be a string")
            self.need(_natural(self.workers),
                      "workers must be an integer >= 0")
            self.need(_natural(self.checkpoint_every, 1),
                      "checkpoint_every must be an integer >= 1")
            self.need(self.max_states is None or _natural(self.max_states),
                      "max_states must be null or an integer >= 0")
            if compact:
                self.codec_signature: str = header["codec_signature"]
                self.need(isinstance(self.codec_signature, str),
                          "codec_signature must be a string")
            else:
                self.variables: List[str] = header["variables"]
                self.need(isinstance(self.variables, list)
                          and all(isinstance(v, str)
                                  for v in self.variables),
                          "variables must be a list of names")
                if header.get("reduction") is not None:
                    raise CheckpointError(
                        f"{path}: checkpoint was written under "
                        f"partial-order reduction, which this checker no "
                        f"longer has; start the run afresh")
            self._fold(frames, compact)
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"{path}: missing or malformed field ({exc!r})") from None

    def need(self, ok: bool, what: str) -> None:
        """Fail closed: a malformed file is a :class:`CheckpointError`,
        never a traceback from deep inside a restore or a run quietly
        continued from garbage."""
        if not ok:
            raise CheckpointError(f"{self.path}: malformed checkpoint: {what}")

    def _fold(self, frames: List[object], compact: bool) -> None:
        """Replay the records: append their node columns, keep the last
        one's loop state.  Types and ranges of everything a resume
        indexes or counts with are checked here, once, for both
        engines."""
        need = self.need
        self.parent: List[int] = []
        self.states: List[List[object]] = []
        self.fingerprints: List[str] = []
        self.succ: List[List[int]] = []
        self.packed: List[int] = []
        self.stats_snapshot: Optional[Dict[str, object]] = None
        need(bool(frames), "the log holds no complete snapshot record")
        for index, record in enumerate(frames):
            need(isinstance(record, dict), f"record {index} is not an object")
            where = f"record {index}: "
            need(record["nodes_from"] == len(self.parent),
                 f"{where}starts at node {record['nodes_from']!r}, but the "
                 f"records before it hold {len(self.parent)} nodes")
            parent = record["parent"]
            need(isinstance(parent, list), f"{where}parent must be a list")
            count = len(self.parent) + len(parent)

            def ids(name: str, values: object, lowest: int = 0) -> None:
                need(isinstance(values, list)
                     and all(type(v) is int and lowest <= v < count
                             for v in values),
                     f"{where}{name} must list node ids in "
                     f"{lowest}..{count - 1}")

            ids("parent", parent, -1)
            if compact and "succ" not in record:
                raise CheckpointError(
                    f"{self.path}: record {index} holds no succ: the log "
                    f"was written before the compact engine kept its "
                    f"edges and cannot be resumed; start the run afresh")
            succ = record["succ"]
            need(isinstance(succ, list), f"{where}succ must be a list")
            for row in succ:
                ids("succ", row)
            self.succ.extend(succ)
            if compact:
                packed = record["packed"]
                need(isinstance(packed, list) and len(packed) == len(parent)
                     and all(_natural(value) for value in packed),
                     f"{where}packed must hold one integer >= 0 per node")
                need(_natural(record["edge_count"]),
                     f"{where}edge_count must be an integer >= 0")
                digest = record["digest"]
                need(isinstance(digest, list) and len(digest) == 4
                     and all(_natural(x) and x < 1 << 64 for x in digest),
                     f"{where}digest must be four unsigned 64-bit integers")
                self.packed.extend(packed)
                self.edge_count: int = record["edge_count"]
                self.digest: List[int] = digest
            else:
                rows, fingerprints = record["states"], record["fingerprints"]
                width = len(self.variables)
                need(isinstance(rows, list) and len(rows) == len(parent)
                     and all(isinstance(row, list) and len(row) == width
                             for row in rows),
                     f"{where}states must hold one row of {width} values "
                     f"per node")
                need(isinstance(fingerprints, list)
                     and len(fingerprints) == len(parent)
                     and all(isinstance(fp, str) for fp in fingerprints),
                     f"{where}fingerprints must hold one string per node")
                self.states.extend(rows)
                self.fingerprints.extend(fingerprints)
            self.parent.extend(parent)
            frontier = record["frontier"]
            need(isinstance(frontier, list) and len(frontier) == 2
                 and _natural(frontier[0]) and frontier[0] <= count
                 and frontier[1] == count,
                 f"{where}frontier must be the node-id range "
                 f"[first, {count}) left unexpanded")
            need(len(self.succ) == frontier[0],
                 f"{where}succ must hold one row per node below the "
                 f"frontier")
            self.frontier = list(range(frontier[0], count))
            self.depth: int = record["depth"]
            self.levels: int = record["levels"]
            self.elapsed_seconds: float = record["elapsed_seconds"]
            need(_natural(self.depth) and _natural(self.levels),
                 f"{where}depth and levels must be integers >= 0")
            need(type(self.elapsed_seconds) in (int, float),
                 f"{where}elapsed_seconds must be a number")
            self._fold_stats(record["stats"], where)
        self.init_nodes = [node for node, p in enumerate(self.parent)
                           if p < 0]

    def _fold_stats(self, stats: object, where: str) -> None:
        """A record's stats are cumulative except ``levels``, whose rows
        are the ones added since the previous record."""
        self.need(isinstance(stats, (dict, type(None))),
                  f"{where}stats must be null or an object")
        if stats is None:
            self.stats_snapshot = None
            return
        rows = stats.get("levels", [])
        self.need(isinstance(rows, list)
                  and all(isinstance(row, dict) for row in rows),
                  f"{where}stats levels must be a list of objects")
        folded = (self.stats_snapshot or {}).get("levels", [])
        folded.extend(rows)
        self.stats_snapshot = dict(stats, levels=folded)

    def restore_stats(self, stats: Optional[ExploreStats]) -> None:
        """Reload the cumulative counters the interrupted run recorded."""
        if stats is not None and self.stats_snapshot:
            stats.restore(self.stats_snapshot)

    def restore_graph(self, spec: Spec,
                      max_states: Optional[int] = None) -> StateGraph:
        """Rebuild the full-engine graph against *spec*'s universe,
        verifying that the header's variables match and that every
        decoded state lies in the spec's domains and reproduces its
        stored fingerprint (corruption / encoding-drift detection).  The
        fingerprints come from one codec fold over the states' packed
        rows, which also fills each state's fingerprint cache."""
        variables = self.variables
        if variables != list(spec.universe.variables):
            raise CheckpointError(
                f"{self.path}: checkpoint variables {variables} do not match "
                f"spec {spec.name!r} variables {list(spec.universe.variables)}"
            )
        codec = PackedCodec(spec.universe)
        states: List[State] = []
        rows: List[int] = []
        for node, row in enumerate(self.states):
            try:
                state = State.from_portable(dict(zip(variables, row)))
                rows.append(codec.encode(state))
            except (TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{self.path}: state {node} cannot be decoded "
                    f"({exc})") from None
            states.append(state)
        for node, fingerprint in enumerate(codec.fingerprints(rows)):
            expected = self.fingerprints[node]
            actual = format(fingerprint, "016x")
            if actual != expected:
                raise CheckpointError(
                    f"{self.path}: state {node} fingerprint mismatch "
                    f"({actual} != stored {expected}); the checkpoint is "
                    f"corrupt or was written by an incompatible encoder"
                )
            states[node]._fp = fingerprint  # State.fingerprint()'s cache
        unexpanded = [[]] * (len(states) - len(self.succ))
        return StateGraph.restore(
            spec.universe,
            states,
            self.succ + unexpanded,
            [None if p < 0 else p for p in self.parent],
            self.init_nodes,
            max_states=self.max_states if max_states is None else max_states,
            name=spec.name,
        )


def _read_frames(path: str, count: Optional[int] = None) -> List[object]:
    """The header and records of the level log at *path* (at most
    *count*), the header's format and version checked: a torn final
    frame is dropped, anything else is a :class:`CheckpointError`."""
    try:
        log = records.read(path, _MAGIC, count)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    except records.RecordError as exc:
        if exc.offset == 0:  # no magic, and not JSON either
            raise CheckpointError(
                f"{path}: unreadable checkpoint (no level-log magic, and "
                f"not a JSON object)") from None
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc.what} at "
                              f"byte {exc.offset}") from None
    # a version-1 file, one JSON object, reads as NDJSON with a header
    header = log.records[0] if log.records else None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: unreadable checkpoint (the header "
                              f"is truncated or not an object)")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file "
                              f"(format={header.get('format')!r})")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version "
            f"{header.get('version')!r} (this build reads version "
            f"{CHECKPOINT_VERSION})")
    if log.ndjson:
        raise CheckpointError(
            f"{path}: unreadable checkpoint (no level-log magic)")
    return log.records


# read_checkpoint()'s "either engine's snapshot will do"
_ANY_MODE = object()


def read_checkpoint(path: str, mode: object = _ANY_MODE) -> Checkpoint:
    """The one validating reader: fold the level log at *path*, and
    refuse a log written by the other engine than *mode* (``None`` is
    the full engine) -- the two are not interchangeable."""
    frames = _read_frames(path)
    loaded = Checkpoint(path, frames[0], frames[1:])
    if mode is not _ANY_MODE and loaded.mode != mode:
        if loaded.mode == COMPACT_CHECKPOINT_MODE:
            raise CheckpointError(
                f"{path}: checkpoint was written by the compact engine; "
                f"resume it with repro.checker.compact.resume_compact")
        raise CheckpointError(
            f"{path}: checkpoint was written by the full-state engine; "
            f"resume it with repro.checker.checkpoint.resume (the two "
            f"engines' snapshots are not interchangeable)")
    return loaded


def checkpoint_mode(path: str) -> Optional[str]:
    """The engine the level log at *path* was written by -- its header's
    ``mode``: ``None`` for the full engine, ``"compact"`` -- decoded from
    the header frame alone."""
    return _read_frames(path, 1)[0].get("mode")


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a full-engine level log."""
    return read_checkpoint(path, None)


def resume(
    path: str,
    spec: Spec,
    *,
    workers: Optional[int] = None,
    max_states: Optional[int] = None,
    stats: Optional[ExploreStats] = None,
    checkpoint: object = _SAME_PATH,
    checkpoint_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    fault_hook: object = None,
) -> StateGraph:
    """Continue an exploration of *spec* from a checkpoint, bit-for-bit.

    The restored run picks up at the stored BFS level boundary and
    produces exactly the graph an uninterrupted run would have: same
    numbering, adjacency, parents, traces, and budget behaviour.

    *workers*, *max_states*, and *checkpoint_every* default to the
    stored values (pass ``max_states`` explicitly to continue an
    exploded run under a larger budget).  By default the resumed run
    keeps checkpointing to the same *path*; pass ``checkpoint=None`` to
    disable further snapshots, or another path to redirect them.
    """
    start = perf_counter()
    from .bfs import drive, resolve_options
    from .explorer import FullEngine
    from .parallel import local_level

    loaded = load_checkpoint(path)
    options = resolve_options(workers, worker_timeout, fault_hook,
                              checkpoint, checkpoint_every, resumed=loaded)
    graph = loaded.restore_graph(spec, max_states=max_states)
    loaded.restore_stats(stats)
    engine = FullEngine(spec, graph)
    return drive(local_level(engine, stats, options),
                 list(loaded.frontier), start, loaded)


# -- run manifests -----------------------------------------------------------

#: The run manifest's own schema revision (independent of the log's).
MANIFEST_VERSION = 1


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
) -> Dict[str, object]:
    """Atomically write a JSON run manifest; returns the payload.

    *outcome* is one of ``"ok"`` (all checks passed / exploration
    completed), ``"violation"`` (a counterexample was found),
    ``"explosion"`` (the state budget was exceeded), or ``"error"``.
    """
    payload: Dict[str, object] = {
        "format": "repro-run-manifest",
        "version": MANIFEST_VERSION,
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
    }
    records.atomic_replace(path, records.encode(payload), fsync=True)
    return payload
