"""Outside-in span tracing for the benchmark harness.

Spans are recorded by the harness's own files around calls into a
layer's public functions -- nothing under ``src/`` knows about them.  A
:class:`Tracer` is off until a traced round turns it on; while off,
``span()`` hands back a null context and records nothing.

A span is ``(id, name, start, end, parent, check)``: *parent* is the id
of the span that was open on the same thread when this one started,
*check* the identifier all spans of one check share.  Spans stay in
memory and are written as NDJSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    check: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, check: Optional[str] = None):
        """Context manager around one call into a layer.  *check*
        defaults to the enclosing span's."""
        if not self.enabled:
            return nullcontext()
        return self._record(name, check)

    @contextmanager
    def _record(self, name: str, check: Optional[str]) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if check is None and parent is not None:
            check = parent.check
        with self._lock:
            span = Span(len(self.spans), name, 0.0, 0.0,
                        parent.id if parent is not None else None, check)
            self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable[[object], None]] = None) -> bool:
        """Replace ``owner.attr`` by a wrapper that runs the original
        inside a span called *name* (and hands its result to
        *on_result*, tracing or not).  The seam is an internal name of
        the program, so a missing one is reported and skipped rather
        than fatal: the layer then reads 0, the run still counts."""
        original = getattr(owner, attr, None)
        if original is None:
            print(f"bench: no seam {getattr(owner, '__name__', owner)}."
                  f"{attr}; layer {name} will read 0", file=sys.stderr)
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        return True


# -- analysis ---------------------------------------------------------------


def _covered(intervals: List[List[float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of that interval its child
    spans cover (children clipped to the parent, overlaps counted
    once)."""
    spans = list(spans)
    children: Dict[int, List[List[float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append([start, end])
    return {span.id: span.duration - _covered(children.get(span.id, []))
            for span in spans}


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Span name -> summed self time (0 for a layer never entered)."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return totals


def durations(spans: Iterable[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def overhead_share(traced_round_s: float,
                   untraced_round_s: List[float]) -> float:
    """``bench.trace_overhead_share``: the traced round against the
    median of the untraced ones."""
    return traced_round_s / statistics.median(untraced_round_s) - 1.0


# -- NDJSON -----------------------------------------------------------------


def write_ndjson(spans: Iterable[Span], path: str) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span), separators=(",", ":"))
                         + "\n")


def read_ndjson(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]
