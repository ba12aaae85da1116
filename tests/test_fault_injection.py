"""Fault-injection tests: worker crashes and hangs never change results.

The parallel explorer claims a strong property: a worker that is
SIGKILLed mid-chunk or hangs past the per-chunk timeout is retried on a
fresh process, and the final graph is **bit-for-bit** the serial one --
retries only show up in ``ExploreStats.worker_retries``.  These tests
make that claim empirical:

* a picklable fault hook (installed in workers through the pool
  initializer) kills or hangs exactly one chunk, coordinated through a
  marker file shared with the retried process;
* ``_MIN_CHUNK`` is patched down so the small bundled systems actually
  ship chunks to workers instead of taking the inline path;
* a chunk that *always* kills its worker must raise
  :class:`WorkerFailure` after the bounded retries rather than loop;
* a whole-process crash (a subprocess that ``os._exit``\\ s mid-run) is
  recovered by ``resume()`` -- or ``resume_compact()`` for the compact
  engine -- from the surviving checkpoint; the file embeds no spec, so
  the resuming process supplies it.
"""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.checker.parallel as parallel_module
from repro.checker import (
    ExploreStats,
    WorkerFailure,
    explore,
    explore_compact,
    explore_parallel,
    load_checkpoint,
    resume,
    resume_compact,
)
from repro.checker.checkpoint import read_checkpoint

from .systems_under_test import CASE_PARAMS
from .test_checkpoint_roundtrip import assert_same_graph


# ---------------------------------------------------------------------------
# picklable fault hooks (module-level + functools.partial: survive the
# trip through the pool initializer)
# ---------------------------------------------------------------------------


def _kill_once(marker: str, chunk) -> None:
    """SIGKILL the worker on the first chunk ever processed; the marker
    file makes the retried process sail through."""
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(marker: str, chunk) -> None:
    """Hang the worker well past any test timeout, once."""
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return
    time.sleep(300)


def _kill_always(chunk) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def shipped_chunks(monkeypatch):
    """Force the coordinator to ship chunks: with ``_MIN_CHUNK = 1`` even
    the small bundled systems cross the inline threshold."""
    monkeypatch.setattr(parallel_module, "_MIN_CHUNK", 1)


# ---------------------------------------------------------------------------
# crash / hang recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASE_PARAMS)
def test_killed_worker_graph_identical_to_serial(case, tmp_path,
                                                 shipped_chunks):
    """Acceptance criterion: under an injected SIGKILL, every bundled
    system still explores to the exact serial graph."""
    reference = explore(case.make_spec())
    stats = ExploreStats()
    hook = functools.partial(_kill_once, str(tmp_path / "killed.marker"))
    graph = explore_parallel(case.make_spec(), workers=2, stats=stats,
                             fault_hook=hook)
    assert_same_graph(graph, reference)


def test_killed_worker_is_retried_and_counted(tmp_path, shipped_chunks):
    from repro.systems.queue import complete_queue

    reference = explore(complete_queue(2))
    stats = ExploreStats()
    hook = functools.partial(_kill_once, str(tmp_path / "killed.marker"))
    graph = explore_parallel(complete_queue(2), workers=2, stats=stats,
                             fault_hook=hook)
    assert_same_graph(graph, reference)
    assert stats.worker_retries.get("crash", 0) >= 1
    assert stats.total_retries >= 1
    # the retry shows up in the human-readable stats line too
    assert "retries" in stats.format()


def test_hung_worker_times_out_and_is_retried(tmp_path, shipped_chunks):
    from repro.systems.queue import complete_queue

    reference = explore(complete_queue(2))
    stats = ExploreStats()
    hook = functools.partial(_hang_once, str(tmp_path / "hung.marker"))
    graph = explore_parallel(complete_queue(2), workers=2, stats=stats,
                             worker_timeout=0.5, fault_hook=hook)
    assert_same_graph(graph, reference)
    assert stats.worker_retries.get("timeout", 0) >= 1


def test_chunk_that_always_kills_raises_worker_failure(shipped_chunks):
    from repro.systems.queue import complete_queue

    stats = ExploreStats()
    with pytest.raises(WorkerFailure, match="failed"):
        explore_parallel(complete_queue(2), workers=2, stats=stats,
                         fault_hook=_kill_always)
    # every attempt beyond the first was counted before giving up
    assert stats.worker_retries.get("crash", 0) > \
        parallel_module._MAX_CHUNK_RETRIES


def test_crash_during_checkpointed_parallel_run_resumes(tmp_path,
                                                        shipped_chunks):
    """Kill + retry and checkpoint/resume compose: a parallel run that
    both checkpoints and loses a worker still resumes to the serial
    graph."""
    from repro.systems.queue import complete_queue

    reference = explore(complete_queue(2))
    path = str(tmp_path / "run.ckpt")
    hook = functools.partial(_kill_once, str(tmp_path / "killed.marker"))
    graph = explore_parallel(complete_queue(2), workers=2, checkpoint=path,
                             checkpoint_every=1, fault_hook=hook)
    assert_same_graph(graph, reference)
    assert_same_graph(resume(path, complete_queue(2), checkpoint=None),
                      reference)


# ---------------------------------------------------------------------------
# whole-process death: the coordinator itself is killed mid-run
# ---------------------------------------------------------------------------


_CRASHING_RUN = textwrap.dedent("""
    import os, sys
    from repro.checker import explore, explore_compact
    from repro.checker.checkpoint import LevelLog
    from repro.systems.queue import complete_queue

    crash_after = int(sys.argv[2])
    run = explore_compact if sys.argv[3:] == ["compact"] else explore
    saves = [0]
    append = LevelLog.append

    def append_then_die(log, record):
        append(log, record)
        saves[0] += 1
        if saves[0] >= crash_after:
            os._exit(17)  # simulate an OOM kill / power loss

    LevelLog.append = append_then_die
    run(complete_queue(2), checkpoint=sys.argv[1], checkpoint_every=1)
""")


def _crash_a_run(path, crash_after, *engine):
    """Run :data:`_CRASHING_RUN` in a subprocess; it dies right after
    its *crash_after*-th checkpoint record."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CRASHING_RUN, path, str(crash_after),
         *engine],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 17, proc.stderr


@pytest.mark.parametrize("crash_after", [1, 3])
def test_process_death_recovered_via_embedded_spec(tmp_path, crash_after):
    from repro.systems.queue import complete_queue

    path = str(tmp_path / "run.ckpt")
    _crash_a_run(path, crash_after)
    # the checkpoint survived the crash; the spec comes from this
    # process, never from the file
    loaded = load_checkpoint(path)
    assert loaded.levels == crash_after
    assert_same_graph(resume(path, complete_queue(2), checkpoint=None),
                      explore(complete_queue(2)))


@pytest.mark.parametrize("crash_after", [1, 3])
def test_compact_process_death_resumes_on_one_machine(tmp_path, crash_after):
    """The compact engine's log survives its writer's death the same
    way, and ``resume_compact`` finishes it on the uninterrupted run's
    digest."""
    from repro.systems.queue import complete_queue

    path = str(tmp_path / "run.ckpt")
    _crash_a_run(path, crash_after, "compact")
    assert read_checkpoint(path).levels == crash_after
    resumed = resume_compact(path, complete_queue(2), checkpoint=None)
    assert resumed.digest() == explore_compact(complete_queue(2)).digest()
