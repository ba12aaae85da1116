"""Process-wide observability for the checking service.

A :class:`MetricsRegistry` holds counters, gauges, and histograms
(optionally labelled, e.g. per tenant) and renders them in the
Prometheus text exposition format for ``GET /metrics``.  Everything is
stdlib: a metric family is a name + kind + label names; a child is one
label-value combination holding a float (counter/gauge) or cumulative
bucket counts + sum (histogram).

The registry lives in memory only.  One front serves a state
directory, and the job journal is its durable record: a starting front
sets the admission counters (admitted, completed, failed, cancelled)
from the journal's fold, so ``/metrics`` reconciles with the journal
across restarts, SIGKILL included (admitted == completed + failed +
cancelled + in-flight).  Every other counter and histogram counts this
front's lifetime, the way a Prometheus counter restarts with its
process, and gauges describe the present.

Quantiles for human summaries (``repro admin metrics``, the load-test
report) come from :meth:`Histogram.quantile`, a conservative
upper-bound read of the cumulative buckets.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "render_snapshot",
]

# submit->finish latencies span ~5 ms cache hits to minutes-long
# explorations; the tail buckets keep 30-60 s runs distinguishable
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Child:
    """One label-value combination of a family."""

    def __init__(self, lock: threading.Lock):
        self._lock = lock


class Counter(_Child):
    """A monotonically increasing float."""

    def __init__(self, lock: threading.Lock):
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _data(self) -> float:
        return self._value


class Gauge(_Child):
    """A float that can go either way (queue depth, running jobs)."""

    def __init__(self, lock: threading.Lock):
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _data(self) -> float:
        return self._value


class Histogram(_Child):
    """Cumulative fixed-bucket histogram (Prometheus semantics: each
    bucket counts observations <= its upper bound, +Inf counts all)."""

    def __init__(self, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(lock)
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation
        (inf when it landed beyond the last finite bucket)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        for i, bound in enumerate(self.bounds):
            if self._counts[i] >= rank:
                return bound
        return math.inf

    def _data(self) -> Dict[str, object]:
        return {
            "buckets": {_format_value(b): self._counts[i]
                        for i, b in enumerate(self.bounds)},
            "inf": self._counts[-1],
            "sum": self._sum,
            "count": self._count,
        }


class _Family:
    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...], lock: threading.Lock,
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, **labels: str) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(f"{self.name} takes labels "
                             f"{self.labelnames}, got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> _Child:
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets or DEFAULT_BUCKETS)

    @property
    def default(self) -> _Child:
        """The unlabelled child (only for families with no label names)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled by {self.labelnames}")
        return self.labels()


class MetricsRegistry:
    """All of one process's metric families, by name."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str,
                labelnames: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name} re-registered as {kind}"
                    f"{tuple(labelnames)}; it is {family.kind}"
                    f"{family.labelnames}")
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, tuple(labelnames),
                                 self._lock, buckets)
                self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _Family:
        return self._family(name, "histogram", help_text, labelnames, buckets)

    # -- snapshot / render ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dump of every family (what :meth:`render`
        formats)."""
        families: Dict[str, object] = {}
        with self._lock:
            for name, family in self._families.items():
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": [[list(key), child._data()]
                                for key, child in
                                sorted(family._children.items())],
                }
        return {"pid": os.getpid(), "t": time.time(), "families": families}

    def render(self) -> str:
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """The Prometheus text exposition of one (possibly merged) snapshot."""
    lines: List[str] = []
    for name in sorted(snapshot.get("families", {})):
        family = snapshot["families"][name]
        kind, labelnames = family["kind"], list(family["labelnames"])
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for key, data in family.get("samples", ()):
            base = ",".join(f'{ln}="{_escape_label(lv)}"'
                            for ln, lv in zip(labelnames, key))
            if kind in ("counter", "gauge"):
                label_part = "{" + base + "}" if base else ""
                lines.append(f"{name}{label_part} {_format_value(data)}")
                continue
            pairs = sorted(((float(le), n)
                            for le, n in data["buckets"].items()),
                           key=lambda p: p[0])
            for le, n in pairs:  # counts are already cumulative
                le_part = base + ("," if base else "") \
                    + f'le="{_format_value(le)}"'
                lines.append(f"{name}_bucket{{{le_part}}} {n}")
            inf_part = base + ("," if base else "") + 'le="+Inf"'
            lines.append(f"{name}_bucket{{{inf_part}}} {data['inf']}")
            label_part = "{" + base + "}" if base else ""
            lines.append(f"{name}_sum{label_part} "
                         f"{_format_value(data['sum'])}")
            lines.append(f"{name}_count{label_part} {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")

