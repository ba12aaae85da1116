"""Command-line interface: model-check mini-TLA modules from the shell.

::

    python -m repro check Counter.tla --spec Spec --invariant Small \\
                                      --property Progress
    python -m repro explore Counter.tla --spec Spec
    python -m repro trace Counter.tla --spec Spec --steps 12 --seed 7
    python -m repro pretty Counter.tla Next

``check`` and ``explore`` execute through the one check
pipeline in :mod:`repro.engine` and only render its outcome: text, the
run manifest, the exit code.  ``check`` exits nonzero when any check
fails, printing rendered counterexamples -- suitable for CI.
``--stats-json PATH`` writes the machine-readable
:meth:`~repro.checker.stats.ExploreStats.to_json` snapshot next to the
human ``--stats`` summary.

Service verbs (see :mod:`repro.service`): ``repro serve`` runs the
checking service (one async front per state directory, a durable
journal, a sharded result cache, and ``--pool-size N`` check
processes that run the explorations), with per-tenant quotas via
``--tenant-rate``/``--tenant-burst``/``--tenant-max-inflight``/
``--tenant-queue-limit``.  ``repro submit --tenant NAME`` posts a
module to it (retrying 429s with Retry-After-honouring backoff),
``repro watch`` streams a job's NDJSON progress events, ``repro
cancel`` cancels one, and ``repro admin metrics|jobs|tenants --at URL``
inspects a running service.  SIGTERM on the server checkpoints running
jobs; restarting it on the same state directory resumes them to the
identical verdict and trace, and queued jobs are re-admitted from the
journal exactly once even after SIGKILL.

Durable runs: ``check`` and ``explore`` accept ``--checkpoint PATH`` to
append a snapshot of the exploration to a level log every
``--checkpoint-every`` BFS levels, ``--resume`` to continue the last
complete snapshot bit-for-bit, and
``--worker-timeout`` to bound (and retry) stuck parallel workers.  When a
checkpoint path is given, a JSON run manifest (spec, budget, workers,
wall time, outcome, counterexample trace, effective reduction/store
configuration) is written next to it.

Scaling levers (see :mod:`repro.checker.reduction`): ``--por`` turns on
Disjoint-derived partial-order reduction (sound for invariants and
deadlock; auto-disabled with a note when ``--property`` needs the
full graph), ``--store spill --spill-dir DIR`` swaps the in-RAM state
store for the fingerprint-indexed disk spill store so ``--max-states``
can exceed resident memory.  Both default to off, which is the
byte-identical legacy behaviour; on ``--resume`` they default to
whatever the checkpoint recorded, and passing them explicitly asserts a
match (a mismatched resume is refused rather than silently changing the
run's semantics).

``--compact`` switches to the fingerprint-only engine
(:mod:`repro.checker.compact`): states live as packed machine integers,
the BFS keeps only fingerprints plus parent/level metadata, and
counterexample traces are regenerated on demand by re-walking the
parent chain through the compiled action plan.  Verdicts, traces, node
numbering, and graph digests are identical to the full engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter
from typing import Optional, Sequence

from ..checker import (
    CheckpointError,
    CompactUnsupported,
    ExploreStats,
    StateSpaceExplosion,
    manifest_path_for,
    write_manifest,
)
from ..checker.results import CheckResult
from ..checker.simulate import random_walk
from ..engine import (
    VIOLATION,
    ExplicitEngine,
    SolveStats,
    SymbolicEngine,
    SymbolicUnsupported,
    resolve_request,
)
from ..fmt import pretty
from ..kernel.values import format_value
from ..parser import TLAModule, load_module


def _load(path: str) -> TLAModule:
    """A module by file path, or a bundled protocol by ``@`` reference.

    ``@mutex:n=3,clock=4`` / ``@paxos:acceptors=3,broken`` resolve
    through :func:`repro.systems.bundled_module` -- no module file
    needed, so every corpus instance is scriptable from the shell."""
    if path.startswith("@"):
        from ..systems import bundled_module

        return bundled_module(path[1:])
    with open(path) as handle:
        return load_module(handle.read())


def _report(result: CheckResult, out) -> bool:
    print(result.summary(), file=out)
    if not result.ok and result.counterexample is not None:
        print(result.counterexample.render(), file=out)
    return result.ok


def _spill_dir_problem(path: str) -> Optional[str]:
    """Why *path* cannot host the spill store's files (None = usable).

    Probed with an actual write, not just ``os.access`` -- permission
    bits lie for root and for read-only filesystems."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return str(exc)
    if not os.path.isdir(path):
        return "not a directory"
    probe = os.path.join(path, ".repro-write-probe")
    try:
        with open(probe, "w"):
            pass
        os.unlink(probe)
    except OSError as exc:
        return str(exc)
    return None


def _symbolic_flags_error(args: argparse.Namespace, out) -> bool:
    """Reject flag combinations the symbolic engine cannot honour.

    The bounded symbolic engine solves a CNF unrolling: there is no
    state graph, so every knob that shapes or persists the explicit
    exploration is meaningless with it -- refused loudly rather than
    silently ignored."""
    engine = getattr(args, "engine", "explicit")
    if engine != "symbolic":
        if getattr(args, "depth", None) is not None:
            print("error: --depth is the symbolic unrolling bound; it "
                  "requires --engine symbolic", file=out)
            return True
        return False
    for flag, active in (
            ("--por", bool(args.por)),
            ("--compact", bool(args.compact)),
            ("--store spill", args.store == "spill"),
            ("--property", bool(getattr(args, "property", None))),
            ("--checkpoint", bool(args.checkpoint)),
            ("--resume", bool(args.resume)),
            ("--worker-timeout", args.worker_timeout is not None),
            ("--workers", args.workers != 1),
    ):
        if active:
            print(f"error: --engine symbolic is incompatible with {flag}: "
                  f"bounded model checking solves a CNF unrolling and "
                  f"never builds the state graph those flags configure "
                  f"(drop {flag} or use --engine explicit)", file=out)
            return True
    if not getattr(args, "invariant", None):
        print("error: --engine symbolic needs at least one --invariant: "
              "the CNF encodes 'reach a state violating the invariant "
              "within --depth steps', so there is nothing to solve "
              "without one", file=out)
        return True
    return False


def _durability_error(args: argparse.Namespace, out) -> bool:
    if _symbolic_flags_error(args, out):
        return True
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH "
              "(the snapshot to continue from)", file=out)
        return True
    if args.resume and args.checkpoint \
            and not os.path.exists(args.checkpoint):
        print(f"error: cannot resume: checkpoint file "
              f"{args.checkpoint!r} does not exist (run with --checkpoint "
              f"first to create one, or drop --resume)", file=out)
        return True
    if args.store == "spill" and not args.spill_dir:
        print("error: --store spill requires --spill-dir DIR "
              "(where the state data/index files live)", file=out)
        return True
    if args.store == "spill" and args.spill_dir:
        problem = _spill_dir_problem(args.spill_dir)
        if problem is not None:
            print(f"error: --spill-dir {args.spill_dir!r} is not a "
                  f"writable directory ({problem})", file=out)
            return True
    if args.compact and args.por:
        print("error: --compact and --por are mutually exclusive: the "
              "compact engine explores the full graph on packed ints and "
              "has no reduction machinery (drop one of the flags)",
              file=out)
        return True
    if args.compact and args.store == "spill":
        print("error: --compact keeps only packed ints in RAM and does "
              "not use a state store; drop --store spill (compact mode "
              "is already the low-memory engine)", file=out)
        return True
    if args.compact and getattr(args, "property", None):
        print("error: --compact cannot check temporal properties: "
              "lasso search needs the full successor structure, which "
              "the compact engine does not retain (drop --compact or "
              "--property)", file=out)
        return True
    if args.workers == 1 and args.worker_timeout is not None:
        # never silently accept an option the serial engine would ignore
        print("error: --worker-timeout only applies to the multi-process "
              "engine; --workers 1 runs the serial explorer, which would "
              "silently ignore it (use --workers 2+ or --workers 0)",
              file=out)
        return True
    return False


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1; bad values fail at
    parse time (usage error, exit 2) instead of surfacing as confusing
    runtime errors deep in the store/checkpoint layers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value}")
    return value


def _write_stats_json(args: argparse.Namespace, stats) -> None:
    if not args.stats_json or stats is None:
        return
    with open(args.stats_json, "w") as handle:
        handle.write(stats.to_json(indent=2) + "\n")


def _store_config(args: argparse.Namespace) -> Optional[dict]:
    """The StateStore config dict the --store flags describe (None when
    --store was not given)."""
    if args.store == "spill":
        return {"kind": "spill", "spill_dir": args.spill_dir,
                "hot_capacity": args.spill_cache}
    return {"kind": "mem"} if args.store else None


def _explicit_engine(args: argparse.Namespace) -> ExplicitEngine:
    """The engine the ``check`` / ``explore`` flags describe.  Flags the
    user left unset stay ``None``, so a ``--resume`` adopts what the
    checkpoint recorded for them."""
    return ExplicitEngine(
        "compact" if args.compact else "parallel",
        max_states=args.max_states, workers=args.workers, por=args.por,
        store=_store_config(args), checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every, resume=args.resume,
        worker_timeout=args.worker_timeout)


def _leave_behind(args: argparse.Namespace, engine: ExplicitEngine, run,
                  label: str, wall_seconds: float, outcome: str,
                  error: Optional[str] = None) -> None:
    """What an explicit run leaves on disk, on success and on a blown
    budget (``run.graph`` is None) alike: the run manifest next to the
    checkpoint (if one was asked for) and the ``--stats-json`` file."""
    if args.checkpoint:
        graph = run.graph
        store = getattr(graph, "store", None)  # CompactGraph has no store
        reduction = None
        if run.reduction is not None:
            # the requested config plus whether any state of the
            # reported graph was actually ample-expanded
            reduction = dict(run.reduction.as_dict(), used=bool(
                getattr(graph, "reduction_used", False)))
        write_manifest(
            manifest_path_for(args.checkpoint),
            spec_name=label,
            max_states=engine.max_states,
            workers=engine.workers,
            wall_seconds=wall_seconds,
            outcome=outcome,
            states=graph.state_count if graph is not None else None,
            edges=graph.edge_count if graph is not None else None,
            counterexample=next(
                (result.counterexample for _kind, result in run.results
                 if result.counterexample is not None), None),
            stats=run.stats,
            error=error,
            reduction=reduction,
            store=(store.config() if store is not None
                   else {"kind": "compact"} if graph is not None
                   else engine.store),
        )
    _write_stats_json(args, run.stats)


def _run_explicit(args: argparse.Namespace, out, engine: ExplicitEngine,
                  request, report, indent: str = "") -> int:
    """Render one pipeline run the way ``check`` / ``explore`` share:
    the run's notes, the verb's own *report* of the finished run, the
    ``--stats`` table, and what the run leaves on disk.  Returns the exit code; a blown budget leaves its manifest
    and propagates (``main`` prints it, exit 2)."""
    spec, label, invariants, properties = request
    # stats are collected when either rendering is requested: the human
    # --stats summary or the machine --stats-json file
    stats = ExploreStats() if (args.stats or args.stats_json) else None
    run = engine.run(spec, invariants, properties, stats)

    def print_notes() -> None:
        for note in run.notes:
            print(f"note: {note}", file=out)

    start = perf_counter()
    try:
        with run:
            print_notes()
            report(run, label)
            if args.stats and stats is not None:
                print(stats.summary(indent=indent), file=out)
            _leave_behind(args, engine, run, label, perf_counter() - start,
                          "ok" if run.ok else "violation")
            return 0 if run.ok else 1
    except StateSpaceExplosion as exc:
        print_notes()
        _leave_behind(args, engine, run, label, perf_counter() - start,
                      "explosion", error=str(exc))
        raise
    except (CheckpointError, CompactUnsupported) as exc:
        print(f"error: {exc}", file=out)
        return 2


def _check_symbolic(args: argparse.Namespace, out, request) -> int:
    """Bounded symbolic checking: one CNF unrolling per invariant.

    Exit codes: 0 when no violation was found within the bound (this
    includes UNKNOWN -- the run says so explicitly, because a bounded
    pass is not a proof), 1 for a violation, 2 when the spec cannot be
    translated.
    """
    spec, label, invariants, _properties = request
    engine = SymbolicEngine(depth=args.depth)
    stats = SolveStats() if (args.stats or args.stats_json) else None
    print(f"{label}: bounded symbolic check to depth {engine.depth} "
          f"(cdcl backend)", file=out)
    try:
        results = engine.check_obligations(spec, invariants, stats=stats)
    except SymbolicUnsupported as exc:
        print(f"error: the symbolic engine cannot translate this spec "
              f"({exc}); rerun with --engine explicit", file=out)
        return 2
    for result in results:
        print(result.summary(), file=out)
        if result.counterexample is not None:
            print(result.counterexample.render(), file=out)
    if args.stats and stats is not None:
        print(stats.summary(), file=out)
    _write_stats_json(args, stats)
    return 1 if any(r.verdict == VIOLATION for r in results) else 0


def cmd_check(args: argparse.Namespace, out) -> int:
    if _durability_error(args, out):
        return 2
    request = resolve_request(_load(args.module), args.spec,
                              args.invariant or (), args.property or ())
    if args.engine == "symbolic":
        return _check_symbolic(args, out, request)

    def report(run, label: str) -> None:
        graph = run.graph
        # edge_count is real N-edges; the stutter self-loops (one per node)
        # are reported separately so the N-edge count is not inflated
        print(f"{label}: {graph.state_count} states, "
              f"{graph.edge_count} edges (+{graph.stutter_count} stutter)",
              file=out)
        for _kind, result in run.results:
            _report(result, out)
        if not run.results:
            print("(no --invariant/--property given: exploration only)",
                  file=out)

    return _run_explicit(args, out, _explicit_engine(args), request, report)


def cmd_explore(args: argparse.Namespace, out) -> int:
    if _durability_error(args, out):
        return 2

    def report(run, label: str) -> None:
        graph = run.graph
        print(f"{label}:", file=out)
        print(f"  states: {graph.state_count}", file=out)
        print(f"  edges:  {graph.edge_count} (+{graph.stutter_count} stutter)",
              file=out)
        print(f"  initial states: {len(graph.init_nodes)}", file=out)
        shown = min(args.show, graph.state_count)
        if shown:
            print(f"  first {shown} state(s):", file=out)
            for node in range(shown):
                print(f"    {graph.states[node]!r}", file=out)

    return _run_explicit(args, out, _explicit_engine(args),
                         resolve_request(_load(args.module), args.spec),
                         report, indent="  ")


def cmd_trace(args: argparse.Namespace, out) -> int:
    module = _load(args.module)
    spec = module.spec(args.spec)
    walk = random_walk(spec, steps=args.steps, seed=args.seed)
    names = spec.universe.variables
    header = ["step"] + [str(i) for i in range(len(walk))]
    rows = [header]
    for name in names:
        rows.append([name] + [format_value(state[name]) for state in walk])
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)),
              file=out)
    return 0


def cmd_pretty(args: argparse.Namespace, out) -> int:
    module = _load(args.module)
    names = [args.definition] if args.definition else sorted(module.definitions)
    for name in names:
        value = module.get(name)
        from ..kernel.values import Domain

        if isinstance(value, Domain):
            print(f"{name} == {value!r}", file=out)
        elif hasattr(value, "next_action"):  # a bundled canonical Spec
            print(f"{name} == {value!r}", file=out)
        else:
            print(f"{name} == {pretty(value, unicode=args.unicode)}", file=out)
    return 0


def _terminal_exit_code(record: dict) -> int:
    """Map a finished service job to ``repro check``-style exit codes."""
    state = record.get("state")
    if state == "done":
        result = record.get("result") or {}
        verdict = result.get("verdict")
        if verdict == "ok":
            return 0
        if verdict == "unknown":
            return 0  # symbolic: no violation within the bound (not a proof)
        if verdict == "violation":
            return 1
        return 2  # explosion / anything unexpected
    if state == "cancelled":
        return 3
    return 2  # failed


def cmd_serve(args: argparse.Namespace, out) -> int:
    from ..service.scheduler import TenantPolicy
    from ..service.server import run_server

    policy = None
    if (args.tenant_rate is not None or args.tenant_max_inflight is not None
            or args.tenant_queue_limit is not None):
        policy = TenantPolicy(rate=args.tenant_rate,
                              burst=args.tenant_burst,
                              max_inflight=args.tenant_max_inflight,
                              max_queued=args.tenant_queue_limit)
    return run_server(state_dir=args.state_dir, host=args.host,
                      port=args.port, pool_size=args.pool_size,
                      queue_limit=args.queue_limit,
                      tenant_policy=policy, out=out)


def cmd_submit(args: argparse.Namespace, out) -> int:
    from ..service.client import QueueFullError, ServiceClient

    with open(args.module) as handle:
        source = handle.read()
    client = ServiceClient(args.server, tenant=args.tenant,
                           retries=args.retries)
    try:
        payload = client.submit(
            source, spec=args.spec,
            invariants=args.invariant or (),
            properties=args.property or (),
            max_states=args.max_states, por=bool(args.por),
            compact=bool(args.compact),
            workers=args.workers, level_delay=args.level_delay,
            engine=args.engine, depth=args.depth)
    except QueueFullError as exc:
        print(f"error: {exc} (retry in ~{exc.retry_after:g}s)", file=out)
        return 3
    job = payload["job"]
    if args.as_json:
        print(json.dumps(payload), file=out)
    else:
        print(f"job {job['id']}: {job['state']} "
              f"(disposition={payload['disposition']}, "
              f"cache_hit={job['cache_hit']})", file=out)
    if not args.wait:
        return 0
    record = client.wait(job["id"], timeout=args.timeout)
    result = record.get("result") or {}
    for check in result.get("checks", ()):
        print(check["summary"], file=out)
        cex = check.get("counterexample")
        if cex:
            print(cex["rendered"], file=out)
    verdict = result.get("verdict") or record.get("state")
    print(f"job {job['id']}: {record['state']} "
          f"(verdict={verdict}, cache_hit={record['cache_hit']})", file=out)
    return _terminal_exit_code(record)


def cmd_watch(args: argparse.Namespace, out) -> int:
    """Stream a job's progress events as NDJSON lines until it ends."""
    from ..service.client import ServiceClient

    client = ServiceClient(args.server)
    for event in client.events(args.job, timeout=args.timeout):
        print(json.dumps(event), file=out)
    return _terminal_exit_code(client.job(args.job))


def cmd_cancel(args: argparse.Namespace, out) -> int:
    from ..service.client import ServiceClient

    outcome = ServiceClient(args.server).cancel(args.job)
    print(f"job {args.job}: cancel "
          f"{'accepted' if outcome['accepted'] else 'rejected'} "
          f"(state={outcome['state']})", file=out)
    return 0 if outcome["accepted"] else 1


def cmd_admin(args: argparse.Namespace, out) -> int:
    """Operator's window onto a running service: ``repro admin
    metrics|jobs|tenants --at URL``."""
    from ..service.client import ServiceClient

    client = ServiceClient(args.at)
    if args.what == "metrics":
        print(client.metrics(), file=out, end="")
        return 0
    if args.what == "tenants":
        tenants = client.tenants()
        if args.as_json:
            print(json.dumps(tenants, indent=2, sort_keys=True), file=out)
            return 0
        if not tenants:
            print("no tenants yet", file=out)
            return 0
        print(f"{'tenant':<20} {'queued':>6} {'inflight':>8} "
              f"{'admitted':>8} {'completed':>9} {'throttled':>9}",
              file=out)
        for name, entry in tenants.items():
            print(f"{name:<20} {entry['queued']:>6} {entry['inflight']:>8} "
                  f"{entry['admitted']:>8} {entry['completed']:>9} "
                  f"{entry['throttled']:>9}", file=out)
        return 0
    # args.what == "jobs"
    records = client.list_jobs()
    if args.as_json:
        print(json.dumps(records, indent=2), file=out)
        return 0
    if not records:
        print("no jobs", file=out)
        return 0
    print(f"{'id':<14} {'tenant':<14} {'state':<10} {'verdict':<10} "
          f"{'cache':<5} {'coalesced':>9}", file=out)
    for record in records:
        result = record.get("result") or {}
        print(f"{record.get('id', '?'):<14} "
              f"{record.get('tenant', 'default'):<14} "
              f"{record.get('state', '?'):<10} "
              f"{str(result.get('verdict') or '-'):<10} "
              f"{'yes' if record.get('cache_hit') else 'no':<5} "
              f"{record.get('coalesced', 0):>9}", file=out)
    return 0


def _add_durability_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="snapshot the exploration to PATH (atomically, at "
                          "BFS level boundaries) and write a JSON run "
                          "manifest to PATH.manifest.json")
    sub.add_argument("--checkpoint-every", type=_positive_int, default=1,
                     metavar="N",
                     help="snapshot every N BFS levels (default 1; must be "
                          ">= 1)")
    sub.add_argument("--resume", action="store_true",
                     help="continue from the --checkpoint snapshot instead "
                          "of starting fresh; the resumed run is bit-for-bit "
                          "the uninterrupted one (pass a larger --max-states "
                          "to continue past an exceeded budget)")
    sub.add_argument("--worker-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="bound the seconds a parallel worker may spend on "
                          "one frontier chunk; a worker that dies or "
                          "exceeds this is retried on a fresh process "
                          "(never changes the result)")


def _add_scaling_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--por", dest="por", action="store_true", default=None,
                     help="enable partial-order reduction derived from the "
                          "spec's Disjoint decomposition (sound for "
                          "invariants and deadlock; verdicts and reported "
                          "traces are identical to a full run)")
    sub.add_argument("--no-por", dest="por", action="store_false",
                     help="force reduction off (on --resume this asserts "
                          "the checkpoint was written without reduction)")
    sub.add_argument("--store", choices=("mem", "spill"), default=None,
                     help="state-store backend: 'mem' (default) interns "
                          "states in RAM; 'spill' keeps a bounded LRU of "
                          "hot states backed by data+index files under "
                          "--spill-dir, so --max-states can exceed resident "
                          "memory.  Node numbering and verdicts are "
                          "identical either way.")
    sub.add_argument("--spill-dir", default=None, metavar="DIR",
                     help="directory for the spill store's states.dat / "
                          "states.idx files (required with --store spill)")
    sub.add_argument("--spill-cache", type=_positive_int, default=4096,
                     metavar="N",
                     help="spill store: how many hot decoded states to keep "
                          "resident (default 4096; must be >= 1); purely a "
                          "speed knob, never changes results")


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    """The exploration-engine flags ``check`` and ``explore`` share."""
    sub.add_argument("--max-states", type=_positive_int, default=200_000,
                     help="hard budget on interned states (default 200000)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for the exploration (default 1 "
                          "= the serial reference explorer; 0 = one per "
                          "core).  Any value yields the identical graph, "
                          "numbering, and traces.")
    sub.add_argument("--compact", action="store_true",
                     help="fingerprint-only engine: keep packed integer "
                          "states plus BFS parents instead of full State "
                          "objects, and regenerate counterexample traces "
                          "on demand.  Verdicts, traces, and node "
                          "numbering are identical to the full engine; "
                          "incompatible with --por, --store spill, and "
                          "--property (those need the full graph).")
    sub.add_argument("--stats", action="store_true",
                     help="print exploration statistics (states/sec, "
                          "depth, real-vs-stutter edges, per-phase timing, "
                          "per-worker throughput)")
    sub.add_argument("--stats-json", default=None, metavar="PATH",
                     help="also write the statistics as JSON to PATH (the "
                          "machine-readable twin of --stats; implies "
                          "collecting stats)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Open Systems in TLA: model-check mini-TLA modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="explore and check a module")
    check.add_argument("module",
                       help="path to a mini-TLA module file, or "
                            "@name:key=val,... for a bundled protocol "
                            "(e.g. @mutex:n=2,clock=3 or "
                            "@paxos:acceptors=3,broken)")
    check.add_argument("--spec", default="Spec", help="spec definition name")
    check.add_argument("--invariant", action="append",
                       help="state-predicate definition to check (repeatable)")
    check.add_argument("--property", action="append",
                       help="temporal definition to check (repeatable)")
    check.add_argument("--engine", choices=("explicit", "symbolic"),
                       default="explicit",
                       help="checking engine: 'explicit' (default) "
                            "explores the state graph exhaustively and "
                            "proves invariants; 'symbolic' solves a "
                            "CNF unrolling to --depth steps (finds deep "
                            "bugs without enumerating states, but a "
                            "clean run is UNKNOWN, not a proof)")
    check.add_argument("--depth", type=_positive_int, default=None,
                       metavar="K",
                       help="symbolic unrolling bound: search for a "
                            "violation within K steps of an initial "
                            "state (default 10; requires --engine "
                            "symbolic)")
    _add_engine_flags(check)
    _add_durability_flags(check)
    _add_scaling_flags(check)
    check.set_defaults(func=cmd_check)

    exp = sub.add_parser("explore", help="explore the state space")
    exp.add_argument("module")
    exp.add_argument("--spec", default="Spec")
    exp.add_argument("--show", type=int, default=5,
                     help="how many states to print")
    _add_engine_flags(exp)
    _add_durability_flags(exp)
    _add_scaling_flags(exp)
    exp.set_defaults(func=cmd_explore)

    trace = sub.add_parser("trace", help="print a random behavior prefix")
    trace.add_argument("module")
    trace.add_argument("--spec", default="Spec")
    trace.add_argument("--steps", type=int, default=12)
    trace.add_argument("--seed", type=int, default=None)
    trace.set_defaults(func=cmd_trace)

    pp = sub.add_parser("pretty", help="pretty-print definitions")
    pp.add_argument("module")
    pp.add_argument("definition", nargs="?", default=None)
    pp.add_argument("--unicode", action="store_true")
    pp.set_defaults(func=cmd_pretty)

    serve = sub.add_parser(
        "serve", help="run the checking service (async job server with a "
                      "content-addressed result cache)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8123,
                       help="TCP port (default 8123; 0 = pick an ephemeral "
                            "port, recorded in STATE_DIR/server.json)")
    serve.add_argument("--state-dir", default=".repro-service", metavar="DIR",
                       help="where jobs, checkpoints, and the result cache "
                            "live; restarting on the same directory resumes "
                            "interrupted jobs (default .repro-service)")
    serve.add_argument("--pool-size", type=_positive_int, default=2,
                       metavar="N", help="concurrent explorations (default 2)")
    serve.add_argument("--queue-limit", type=_positive_int, default=16,
                       metavar="N",
                       help="admission limit on queued jobs; submissions "
                            "beyond it get 429 + Retry-After (default 16)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       metavar="PER_SECOND",
                       help="per-tenant admission rate (token bucket); "
                            "unset = unlimited")
    serve.add_argument("--tenant-burst", type=_positive_int, default=8,
                       metavar="N",
                       help="per-tenant token-bucket burst capacity "
                            "(default 8; only meaningful with "
                            "--tenant-rate)")
    serve.add_argument("--tenant-max-inflight", type=_positive_int,
                       default=None, metavar="N",
                       help="per-tenant cap on concurrently running jobs")
    serve.add_argument("--tenant-queue-limit", type=_positive_int,
                       default=None, metavar="N",
                       help="per-tenant cap on queued jobs (within the "
                            "global --queue-limit)")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a module to a running checking service")
    submit.add_argument("module", help="path to a mini-TLA module file")
    submit.add_argument("--spec", default="Spec")
    submit.add_argument("--invariant", action="append",
                        help="state-predicate definition to check "
                             "(repeatable)")
    submit.add_argument("--property", action="append",
                        help="temporal definition to check (repeatable)")
    submit.add_argument("--max-states", type=_positive_int, default=200_000)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--por", action="store_true", default=False,
                        help="request partial-order reduction (same "
                             "semantics as repro check --por)")
    submit.add_argument("--compact", action="store_true", default=False,
                        help="request the fingerprint-only compact engine "
                             "(same semantics as repro check --compact; "
                             "auto-disabled server-side when temporal "
                             "properties need the full graph)")
    submit.add_argument("--engine", choices=("explicit", "symbolic"),
                        default="explicit",
                        help="checking engine (same semantics as repro "
                             "check --engine; symbolic verdicts are "
                             "'violation' or 'unknown', cached under a "
                             "key that includes the engine and depth)")
    submit.add_argument("--depth", type=_positive_int, default=None,
                        metavar="K",
                        help="symbolic unrolling bound (requires "
                             "--engine symbolic)")
    submit.add_argument("--level-delay", type=float, default=0.0,
                        metavar="SECONDS",
                        help="pace the exploration: sleep this long after "
                             "every BFS level (demo/testing knob; never "
                             "changes the result)")
    submit.add_argument("--server", default="http://127.0.0.1:8123",
                        metavar="URL")
    submit.add_argument("--tenant", default=None, metavar="NAME",
                        help="submit as this tenant (rides the "
                             "X-Repro-Tenant header; rate limits, queue "
                             "shares, and fair scheduling are per tenant)")
    submit.add_argument("--retries", type=int, default=4, metavar="N",
                        help="retry a 429 up to N times, honouring the "
                             "server's Retry-After with capped backoff + "
                             "jitter (default 4; 0 = fail fast)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and exit like "
                             "repro check (0 ok, 1 violation, 2 error, "
                             "3 cancelled)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default 600)")
    submit.add_argument("--json", dest="as_json", action="store_true",
                        help="print the raw submission response as JSON")
    submit.set_defaults(func=cmd_submit)

    watch = sub.add_parser(
        "watch", help="stream a job's progress events as NDJSON until it "
                      "finishes")
    watch.add_argument("job", help="job id (from repro submit)")
    watch.add_argument("--server", default="http://127.0.0.1:8123",
                       metavar="URL")
    watch.add_argument("--timeout", type=float, default=600.0,
                       help="per-read stream timeout in seconds")
    watch.set_defaults(func=cmd_watch)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job", help="job id (from repro submit)")
    cancel.add_argument("--server", default="http://127.0.0.1:8123",
                        metavar="URL")
    cancel.set_defaults(func=cmd_cancel)

    admin = sub.add_parser(
        "admin", help="inspect a running service: Prometheus metrics, the "
                      "job table, or per-tenant scheduler state")
    admin.add_argument("what", choices=("metrics", "jobs", "tenants"),
                       help="metrics = the /metrics text exposition; jobs "
                            "= every job on the state dir; tenants = "
                            "queue/in-flight/quota state per tenant")
    admin.add_argument("--at", default="http://127.0.0.1:8123",
                       metavar="URL", help="service URL (default "
                                           "http://127.0.0.1:8123)")
    admin.add_argument("--json", dest="as_json", action="store_true",
                       help="print raw JSON instead of the table "
                            "(ignored for metrics, which is always the "
                            "Prometheus text format)")
    admin.set_defaults(func=cmd_admin)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except Exception as exc:  # surface parse/elaboration errors readably
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 2
