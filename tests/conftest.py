"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import time
from typing import Dict, List, Sequence

import pytest

from repro.kernel import Arith, Const, Eq, Lasso, State, Universe, Var, interval
from repro.spec import Spec, weak_fairness

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite the golden files under tests/goldens/ from the "
             "current output instead of comparing against them",
    )


def _live_children(parent: int) -> List[str]:
    """``pid (name)`` of every running (not zombie) child of *parent*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                data = handle.read()
        except OSError:
            continue  # exited while we looked
        name, _, rest = data.rpartition(b")")
        fields = rest.split()
        if len(fields) > 1 and fields[0] != b"Z" \
                and int(fields[1]) == parent:
            found.append(f"{entry} ({name.split(b'(', 1)[-1].decode()})")
    return found


def pytest_sessionfinish(session, exitstatus):
    """No test may leave a process running: a child of this pytest
    process still alive at the end (after a short grace for ones on
    their way out) fails the run."""
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + 10.0
    leftovers = _live_children(os.getpid())
    while leftovers and time.monotonic() < deadline:
        time.sleep(0.1)
        leftovers = _live_children(os.getpid())
    if leftovers:
        reporter = session.config.pluginmanager.get_plugin(
            "terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(
                "processes left running by the tests: "
                + ", ".join(leftovers), red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


class GoldenComparer:
    """Byte-for-byte comparison against a file under ``tests/goldens/``.

    ``golden.check("name.txt", text)`` fails with a diff-friendly message
    on any byte difference; running pytest with ``--update-goldens``
    rewrites the files instead (review the diff before committing).
    """

    def __init__(self, update: bool):
        self.update = update

    def check(self, name: str, actual: str) -> None:
        path = GOLDEN_DIR / name
        if self.update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(actual)
            return
        if not path.exists():
            raise AssertionError(
                f"golden file {path} does not exist; run "
                f"pytest --update-goldens to create it"
            )
        expected = path.read_text()
        if actual != expected:
            raise AssertionError(
                f"output differs from golden {name} "
                f"(run pytest --update-goldens to accept the change):\n"
                f"--- golden\n{expected}\n--- actual\n{actual}"
            )


@pytest.fixture
def golden(request) -> GoldenComparer:
    return GoldenComparer(request.config.getoption("--update-goldens"))


def st(**values) -> State:
    """Shorthand state constructor: ``st(x=1, y=2)``."""
    return State(values)


def lasso(states: Sequence[Dict[str, object]], loop_start: int = 0) -> Lasso:
    """Build a lasso from dicts: ``lasso([{"x":0},{"x":1}], 1)``."""
    return Lasso([State(d) for d in states], loop_start)


def bits(var: str, values: Sequence[int], loop_start: int = 0) -> Lasso:
    """One-variable lasso: ``bits("x", [0,1,1], 1)``."""
    return lasso([{var: v} for v in values], loop_start)


@pytest.fixture
def xy_universe() -> Universe:
    return Universe({"x": interval(0, 2), "y": interval(0, 2)})


@pytest.fixture
def x_universe() -> Universe:
    return Universe({"x": interval(0, 2)})


def counter_spec(modulus: int = 3, fair: bool = True) -> Spec:
    """``x`` counts 0..modulus-1 cyclically; the workhorse toy spec."""
    x = Var("x")
    universe = Universe({"x": interval(0, modulus - 1)})
    step = Eq(x.prime(), Arith("%", x + 1, Const(modulus)))
    fairness = [weak_fairness(("x",), step)] if fair else []
    return Spec(f"counter{modulus}", Eq(x, 0), step, ("x",), universe, fairness)


@pytest.fixture
def counter() -> Spec:
    return counter_spec()
