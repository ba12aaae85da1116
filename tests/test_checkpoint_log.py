"""The checkpoint level log: one append-only file per run.

* a fresh run *replaces* a log at its path -- it never appends to one;
* a torn final record (a crash mid-append) is dropped at every byte
  offset inside it, and the resumed run reproduces the reference graph
  and digest, through the library and through ``repro check --resume``;
* a damaged header or middle record and a version-1 file fail closed:
  :class:`CheckpointError` from the library, exit 2 from the CLI;
* checkpoint I/O is O(states): a ``checkpoint_every=1`` run writes
  little more than one snapshot of its final graph.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

import repro.checker.bfs as bfs_module
import repro.checker.compact as compact_module
import repro.checker.explorer as explorer_module
from repro.checker import (
    CheckpointError,
    ExploreStats,
    digest_of_graph,
    explore,
    explore_compact,
    resume,
    resume_compact,
    save_checkpoint,
)
from repro import records
from repro.checker import checkpoint as checkpoint_module
from repro.checker.checkpoint import LevelLog, read_checkpoint
from repro.checker.compact import save_compact_checkpoint
from repro.systems import bundled_module
from repro.systems.queue import QueueChain
from repro.tools.cli import main as cli_main

MODULE = "mutex:n=2,clock=2"


def mutex_spec():
    return bundled_module(MODULE).spec("Spec")


# ---------------------------------------------------------------------------
# reading and writing frames by hand
# ---------------------------------------------------------------------------


# a frame's prefix: body length, CRC32 of the length, CRC32 of the body
FRAME = struct.Struct(">III")


def frame_spans(path):
    """``(start, end)`` byte offsets of every complete frame, header
    first."""
    with open(path, "rb") as handle:
        data = handle.read()
    spans, offset = [], len(checkpoint_module._MAGIC)
    while offset < len(data):
        (length, _crc, _body_crc) = FRAME.unpack_from(data, offset)
        end = offset + FRAME.size + length
        spans.append((offset, end))
        offset = end
    return spans


def read_log(path):
    """``[header, *records]`` of the log at *path*, as dicts."""
    return records.read(path, checkpoint_module._MAGIC).records


def write_log(path, log):
    """Write ``[header, *records]`` as a well-formed log: every frame's
    checksums are valid, so only the reader's field checks stand
    between a mutated log and a resume."""
    with open(path, "wb") as handle:
        handle.write(checkpoint_module._MAGIC
                     + b"".join(map(records.frame, log)))


ENGINES = {
    "full": (explore, resume, digest_of_graph),
    "compact": (explore_compact, resume_compact,
                lambda graph: graph.digest()),
}


# ---------------------------------------------------------------------------
# a fresh run replaces, never appends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_fresh_run_replaces_an_existing_log(engine, tmp_path, monkeypatch):
    """The service reuses ``jobs/<id>.ckpt`` and the benchmark probe its
    path: two fresh runs to one path leave exactly one run's file."""
    for module in (bfs_module, explorer_module, compact_module):
        monkeypatch.setattr(module, "perf_counter", lambda: 0.0)
    run, resumer, digest = ENGINES[engine]
    once, twice = str(tmp_path / "once.ckpt"), str(tmp_path / "twice.ckpt")
    run(mutex_spec(), checkpoint=once)
    run(mutex_spec(), checkpoint=twice)
    run(mutex_spec(), checkpoint=twice)
    with open(once, "rb") as a, open(twice, "rb") as b:
        assert a.read() == b.read()
    reference = digest(run(mutex_spec()))
    assert digest(resumer(twice, mutex_spec(), checkpoint=None)) == reference


# ---------------------------------------------------------------------------
# torn tail: every byte offset inside the final record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_torn_final_record_resumes_at_every_offset(engine, tmp_path):
    run, resumer, digest = ENGINES[engine]
    reference = digest(run(mutex_spec()))
    path = str(tmp_path / "run.ckpt")
    run(mutex_spec(), checkpoint=path)
    with open(path, "rb") as handle:
        data = handle.read()
    start, end = frame_spans(path)[-1]
    assert end == len(data)
    levels_before = read_checkpoint(path).levels - 1
    torn = str(tmp_path / "torn.ckpt")
    for cut in range(start, end):
        with open(torn, "wb") as handle:
            handle.write(data[:cut])
        assert read_checkpoint(torn).levels == levels_before, cut
        graph = resumer(torn, mutex_spec(), checkpoint=None)
        assert digest(graph) == reference, cut
    # a resume that keeps writing replaces the torn log: the one it
    # leaves reads cleanly and resumes as a no-op
    graph = resumer(torn, mutex_spec())
    assert digest(graph) == reference
    assert frame_spans(torn)[-1][1] == os.path.getsize(torn)
    assert digest(resumer(torn, mutex_spec(), checkpoint=None)) == reference


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_torn_final_record_resumes_through_the_cli(engine, tmp_path, capsys):
    # the library writes the log (a fresh CLI run is always compact);
    # the CLI resumes it on the engine its header names
    run, _resumer, _digest = ENGINES[engine]
    path = str(tmp_path / "run.ckpt")
    run(mutex_spec(), checkpoint=path)
    check = ["check", f"@{MODULE}", "--invariant", "MutualExclusion"]
    assert cli_main(check) == 0
    fresh = capsys.readouterr().out
    check += ["--checkpoint", path]
    with open(path, "rb") as handle:
        data = handle.read()
    start, end = frame_spans(path)[-1]
    for cut in (start, start + 1, (start + end) // 2, end - 1):
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        assert cli_main([*check, "--resume"]) == 0
        assert capsys.readouterr().out == fresh, cut


# ---------------------------------------------------------------------------
# anything but a torn tail fails closed
# ---------------------------------------------------------------------------


def _flip(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x20]))


def _assert_refused(path, engine, capsys, match=None):
    _run, resumer, _digest = ENGINES[engine]
    with pytest.raises(CheckpointError, match=match):
        resumer(path, mutex_spec(), checkpoint=None)
    # the CLI resumes on the engine the header names
    assert cli_main(["explore", f"@{MODULE}", "--checkpoint", path,
                     "--resume"]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: {path}: "), out
    assert "Traceback" not in out


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("where", ["header", "middle-record",
                                   "middle-record-length"])
def test_damaged_header_or_middle_record_fails_closed(engine, where,
                                                      tmp_path, capsys):
    run, _resumer, _digest = ENGINES[engine]
    path = str(tmp_path / "run.ckpt")
    run(mutex_spec(), checkpoint=path)
    spans = frame_spans(path)
    assert len(spans) >= 4
    start, end = spans[0] if where == "header" else spans[len(spans) // 2]
    if where == "middle-record-length":
        offset = start + 1  # inside the length prefix
    else:
        offset = (start + FRAME.size + end) // 2
    _flip(path, offset)
    _assert_refused(path, engine, capsys, match="corrupt checkpoint")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_version_one_file_names_both_versions(engine, tmp_path, capsys):
    path = str(tmp_path / "v1.ckpt")
    with open(path, "w") as handle:
        json.dump({"format": "repro-checkpoint", "version": 1,
                   "spec_name": "Spec", "frontier": []}, handle)
    _assert_refused(path, engine, capsys,
                    match="version 1 .*reads version 2")


def test_a_log_without_records_fails_closed(tmp_path, capsys):
    path = str(tmp_path / "run.ckpt")
    explore(mutex_spec(), checkpoint=path)
    write_log(path, read_log(path)[:1])
    _assert_refused(path, "full", capsys, match="no complete snapshot")


# ---------------------------------------------------------------------------
# checkpoint I/O is O(states)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_checkpoint_io_is_linear_in_states(engine, tmp_path, monkeypatch):
    """QueueChain(3,1) has 6,038 states over dozens of levels.  Every
    byte the checkpoint writes is counted, rewrites included -- each
    atomic replace in full, each append as the bytes it adds: with a
    snapshot per level the total stays within 1.5x of one snapshot of
    the final graph."""
    written = []
    real_replace, real_append = records.atomic_replace, LevelLog.append

    def counting_replace(path, data, *, fsync):
        real_replace(path, data, fsync=fsync)
        written.append(len(data))

    def counting_append(log, record):
        before = os.path.getsize(log.path) if log._started else None
        real_append(log, record)
        if before is not None:
            written.append(os.path.getsize(log.path) - before)

    monkeypatch.setattr(records, "atomic_replace", counting_replace)
    monkeypatch.setattr(LevelLog, "append", counting_append)
    run, _resumer, _digest = ENGINES[engine]
    save = save_checkpoint if engine == "full" else save_compact_checkpoint
    spec = QueueChain(3, 1).complete_spec()
    path = str(tmp_path / "run.ckpt")
    graph = run(spec, stats=ExploreStats(), checkpoint=path,
                checkpoint_every=1)
    total = sum(written)
    assert graph.state_count == 6038
    final = str(tmp_path / "final.ckpt")
    save(final, spec, graph, [], 0, 0, 0.0)
    assert total <= 1.5 * os.path.getsize(final), \
        (total, os.path.getsize(final))
