"""What the four workloads share: timed checks, known answers, rounds.

A *check* is one submit-to-verdict operation; a *round* is one pass
over a workload's fixed check list.  The timed region of a check holds
only the call into the program: turning its result into the observed
facts and comparing them with ``expected.json`` happens after the clock
stops.
"""

from __future__ import annotations

import json
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from manifest import BENCH_DIR
from spans import Span, Tracer

CHECK_TIMEOUT_S = 120

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")


def load_expected(workload: str) -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)[workload]


def mismatches(expected: Dict[str, object],
               observed: Dict[str, object]) -> List[str]:
    """Every fact the known-answer entry states must be observed
    exactly (the entry may state fewer facts than were observed)."""
    return [f"{key}: expected {want!r}, got {observed.get(key)!r}"
            for key, want in expected.items() if observed.get(key) != want]


def vm_hwm_mib(pid: object) -> float:
    """Peak resident set of a process, from ``/proc``.  Not
    ``ru_maxrss``: that survives ``exec``, so a child would report the
    peak of whatever process forked it."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class CheckTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: int) -> Iterator[None]:
    """Turn a hang of an in-process check into an exception (main
    thread only: it rides on SIGALRM)."""

    def expire(_signum, _frame):
        raise CheckTimeout(f"no verdict within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    check: str
    seconds: float
    problems: List[str]
    observed: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Check:
    """``run`` is the timed call; ``observe`` turns what it returned
    into facts comparable with the known-answer entry."""

    id: str
    run: Callable[[], object]
    observe: Callable[[object], Dict[str, object]]


def judge(check_id: str, seconds: float, expected: Dict[str, object],
          observe: Callable[[], Dict[str, object]]) -> Outcome:
    """Compare what a finished check showed with its known answer; an
    exception while looking is a failed check, not a crashed run."""
    try:
        observed = observe()
    except Exception as exc:
        return Outcome(check_id, seconds, [f"{type(exc).__name__}: {exc}"])
    return Outcome(check_id, seconds, mismatches(expected, observed),
                   observed)


class Workload:
    """One workload in one fresh process."""

    name = "abstract"

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.expected = load_expected(self.name)
        #: layer metrics measured outside the traced round (set-up
        #: timings); reported by a traced run
        self.setup_layers: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> List[Outcome]:
        raise NotImplementedError

    def layers(self, spans: Sequence[Span],
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Per-layer metrics of the traced round, from its spans."""
        raise NotImplementedError

    def probes(self, index: int,
               outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Direct probes of single layers, after traced round *index*
        produced *outcomes*; each runs inside a span of its own, a
        sibling of the checks."""
        return {}

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib("self")

    def close(self) -> None:
        pass


class SerialWorkload(Workload):
    """An in-process workload: the seed only shuffles the check order
    (the corpus must keep its known answers)."""

    def build(self) -> None:
        """Construct the systems and specs the checks run on."""
        raise NotImplementedError

    def wrap_seams(self) -> None:
        """Install the span wrappers (``self.tracer.wrap``)."""
        raise NotImplementedError

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def setup(self) -> None:
        start = perf_counter()
        self.build()
        self.setup_layers["systems.build_spec_ms"] = \
            (perf_counter() - start) * 1000.0
        self.wrap_seams()

    def round(self, index: int) -> List[Outcome]:
        checks = self.checks()
        random.Random(f"{self.name}/{self.seed}/{index}").shuffle(checks)
        return [self._timed(check) for check in checks]

    def _timed(self, check: Check) -> Outcome:
        start = perf_counter()
        try:
            with deadline(CHECK_TIMEOUT_S), \
                    self.tracer.span("check", check=check.id):
                result = check.run()
        except Exception as exc:
            return Outcome(check.id, perf_counter() - start,
                           [f"{type(exc).__name__}: {exc}"])
        seconds = perf_counter() - start
        return judge(check.id, seconds, self.expected[check.id],
                     lambda: check.observe(result))


def per_item_us(items: Sequence[object],
                call: Callable[[object], object]) -> Tuple[float, list]:
    """Mean microseconds of ``call(item)``, plus the results."""
    start = perf_counter()
    results = [call(item) for item in items]
    return (perf_counter() - start) * 1e6 / len(items), results
