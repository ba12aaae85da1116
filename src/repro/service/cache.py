"""The content-addressed result cache of the checking service.

A check is a pure function of (module source, spec name, semantic check
configuration) for one version of the checker: the explorer is
deterministic for any worker count and either engine, and the
checkpoint layer makes interrupted runs bit-for-bit resumable.  That
purity is what makes content addressing sound -- the cache key never
has to mention *how* a result was computed (workers, checkpoint
cadence, pacing), only *what* was asked and *which code*
(:func:`source_digest`) answered it.

:class:`ShardedResultCache` is the one store: entries land in
``shard-XX/`` directories keyed by the fingerprint's first byte,
bounded per shard by entry count and bytes.  Reads bump the entry's
mtime, so eviction order is least-recently-*used*, not
least-recently-written.
Hit/miss/eviction counters and ``summary()``/``to_json()`` in the
:class:`~repro.checker.stats.ExploreStats` style make a hit-rate or
eviction-storm regression visible in one line.  Entries are
content-addressed and recomputable, so a directory in any other layout
simply starts cold.

Writes are atomic (:func:`repro.records.atomic_replace`, no ``fsync``:
an entry lost to a power cut is recomputed), so a crash mid-``put``
never leaves a torn entry for a later server to trust.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import records

__all__ = ["canonical_fingerprint", "source_digest", "ShardedResultCache"]


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the ``repro`` package's Python sources, each file's
    relative path and bytes in path order: the checker's version,
    computed once per process."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        body = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(body)}\0".encode("utf-8") + body)
    return digest.hexdigest()


def canonical_fingerprint(module_source: str, spec: str,
                          config: Dict[str, object]) -> str:
    """The content address of a check: SHA-256 over the canonical JSON of
    (module source, spec name, semantic config, :func:`source_digest`).

    *config* must contain exactly the knobs that can change the verdict,
    the reported trace, or the explored graph -- invariants, properties,
    ``max_states``, the engine -- and none of the execution-only knobs
    (worker count, checkpoint cadence, pacing), which the engine
    guarantees cannot.  Key order and whitespace never matter: the JSON
    is sorted and minimally separated.
    """
    canonical = json.dumps(
        {"module": module_source, "spec": spec, "config": config,
         "checker": source_digest()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ShardedResultCache:
    """The result cache: fingerprint-sharded, LRU-bounded.

    The first fingerprint byte picks one of ``shards`` directories, so
    eviction scans touch ~1/shards of the population.  Per-shard bounds
    are the global ``max_entries``/``max_bytes`` split evenly (rounded
    up) -- SHA-256 fingerprints spread uniformly, so the global bound
    holds to within a shard's worth of slack.  An entry that vanished
    under the evictor (another cache object on the directory) is
    skipped, not double-counted.
    """

    def __init__(self, directory: str, shards: int = 16,
                 max_entries: Optional[int] = 4096,
                 max_bytes: Optional[int] = None,
                 memory_entries: int = 256,
                 on_event: Optional[Callable[[str, int], None]] = None):
        if shards < 1 or shards > 256:
            raise ValueError(f"shards must be in 1..256, got {shards}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {memory_entries}")
        self.directory = os.path.abspath(directory)
        self.shards = shards
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        os.makedirs(self.directory, exist_ok=True)
        self._memory: Dict[str, Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._on_event = on_event

    def _record(self, kind: str, amount: int = 1) -> None:
        setattr(self, kind, getattr(self, kind) + amount)
        if self._on_event is not None:
            self._on_event(kind, amount)

    # -- layout --------------------------------------------------------------

    def _shard_dir(self, fingerprint: str) -> str:
        shard = int(fingerprint[:2], 16) % self.shards
        return os.path.join(self.directory, f"shard-{shard:02x}")

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self._shard_dir(fingerprint),
                            fingerprint + ".json")

    # -- the store -----------------------------------------------------------

    def _remember(self, fingerprint: str,
                  entry: Dict[str, object]) -> None:
        if self.memory_entries == 0:
            return
        self._memory.pop(fingerprint, None)
        self._memory[fingerprint] = entry
        while len(self._memory) > self.memory_entries:
            self._memory.pop(next(iter(self._memory)))

    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        entry = self.peek(fingerprint)
        if entry is None:  # absent or torn: a miss
            self._record("misses")
            return None
        if fingerprint not in self._memory:
            try:
                os.utime(self._path(fingerprint))  # LRU recency on disk
            except OSError:
                pass
        self._remember(fingerprint, entry)  # and in memory
        self._record("hits")
        return entry

    def peek(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The entry for *fingerprint*, or ``None`` -- a read that counts
        neither a hit nor a miss and leaves recency alone (what a
        restarted front shows as a finished job's result)."""
        entry = self._memory.get(fingerprint)
        if entry is not None:
            return entry
        try:
            with open(self._path(fingerprint)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def put(self, fingerprint: str, result: Dict[str, object]) -> None:
        shard_dir = self._shard_dir(fingerprint)
        os.makedirs(shard_dir, exist_ok=True)
        records.atomic_replace(self._path(fingerprint),
                               records.encode(result), fsync=False)
        self._remember(fingerprint, result)
        self._evict_shard(shard_dir)

    def _shard_bound(self, total: Optional[int]) -> Optional[int]:
        if total is None:
            return None
        return max(1, -(-total // self.shards))  # ceil division

    def _evict_shard(self, shard_dir: str) -> None:
        entry_bound = self._shard_bound(self.max_entries)
        byte_bound = self._shard_bound(self.max_bytes)
        if entry_bound is None and byte_bound is None:
            return
        entries: List[Tuple[float, int, str]] = []
        total_bytes = 0
        for name in os.listdir(shard_dir):
            if not name.endswith(".json"):
                continue
            path = os.path.join(shard_dir, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, name[:-5]))
            total_bytes += info.st_size
        over_entries = (len(entries) - entry_bound
                        if entry_bound is not None else 0)
        over_bytes = (total_bytes - byte_bound
                      if byte_bound is not None else 0)
        if over_entries <= 0 and over_bytes <= 0:
            return
        entries.sort()  # oldest mtime first: least recently used
        evicted = 0
        for mtime, size, fingerprint in entries:
            if over_entries <= 0 and over_bytes <= 0:
                break
            try:
                os.unlink(os.path.join(shard_dir,
                                       fingerprint + ".json"))
            except OSError:
                continue  # another cache object got there first
            self._memory.pop(fingerprint, None)
            over_entries -= 1
            over_bytes -= size
            evicted += 1
        if evicted:
            self._record("evictions", evicted)

    # -- views ---------------------------------------------------------------

    def _iter_entry_paths(self) -> List[str]:
        paths = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return paths
        for name in names:
            full = os.path.join(self.directory, name)
            if name.startswith("shard-") and os.path.isdir(full):
                try:
                    paths.extend(os.path.join(full, entry)
                                 for entry in os.listdir(full)
                                 if entry.endswith(".json"))
                except OSError:
                    continue
        return paths

    def __contains__(self, fingerprint: str) -> bool:
        return (fingerprint in self._memory
                or os.path.exists(self._path(fingerprint)))

    def __len__(self) -> int:
        return len(self._iter_entry_paths())

    def total_bytes(self) -> int:
        total = 0
        for path in self._iter_entry_paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total

    def counters(self) -> Dict[str, int]:
        """Health counters for ``/healthz`` and ``/metrics``."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self),
                "bytes": self.total_bytes(), "shards": self.shards}

    def summary(self, indent: str = "") -> str:
        """One human line, ExploreStats-style: hit rate + pressure."""
        lookups = self.hits + self.misses
        rate = (100.0 * self.hits / lookups) if lookups else 0.0
        return (f"{indent}result cache: {len(self)} entries, "
                f"{self.hits} hits / {self.misses} misses "
                f"({rate:.1f}% hit rate), {self.evictions} evictions")

    def to_json(self, indent: Optional[int] = None) -> str:
        """Machine-readable twin of :meth:`summary`."""
        return json.dumps(self.counters(), indent=indent, sort_keys=True)
