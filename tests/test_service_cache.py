"""Content-addressed cache layer: fingerprint soundness (semantic knobs
address the result, execution-only knobs never do), and the one result
store -- the sharded multi-process cache: persistence, atomicity,
counters, LRU eviction with ExploreStats-style summaries, and shard
bounds."""

import json
import os

import pytest

import repro.service.cache as cache_module
from repro.service.cache import ShardedResultCache, canonical_fingerprint
from repro.service.jobs import CheckRequest

COUNTER_TLA = """
MODULE Counter
CONSTANT N = 3
VARIABLE x \\in 0..2
Init == x = 0
Next == x' = (x + 1) % N
Spec == Init /\\ [][Next]_<<x>> /\\ WF_<<x>>(Next)
Small == x < 3
TooSmall == x < 2
Progress == (x = 0) ~> (x = 2)
"""


def fp(**overrides):
    request = CheckRequest(module_source=COUNTER_TLA,
                           invariants=("Small",), **overrides)
    return request.fingerprint()


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fp() == fp()

    def test_execution_knobs_do_not_change_the_key(self):
        # the engine is deterministic for any worker count, checkpoint
        # cadence, and pacing -- so none of them may address the cache
        base = fp()
        assert fp(workers=4) == base
        assert fp(checkpoint_every=7) == base
        assert fp(level_delay=0.25) == base

    def test_semantic_knobs_all_change_the_key(self):
        base = fp()
        assert fp(max_states=10) != base
        assert fp(engine="symbolic") != base
        assert CheckRequest(module_source=COUNTER_TLA,
                            invariants=("TooSmall",)).fingerprint() != base
        assert CheckRequest(module_source=COUNTER_TLA,
                            invariants=("Small",),
                            properties=("Progress",)).fingerprint() != base

    def test_module_source_changes_the_key(self):
        assert CheckRequest(
            module_source=COUNTER_TLA + "\n",
            invariants=("Small",)).fingerprint() != fp()

    def test_spec_name_changes_the_key(self):
        a = canonical_fingerprint("m", "Spec", {"max_states": 1})
        b = canonical_fingerprint("m", "Spec2", {"max_states": 1})
        assert a != b

    def test_key_order_in_config_does_not_matter(self):
        a = canonical_fingerprint("m", "Spec", {"a": 1, "b": 2})
        b = canonical_fingerprint("m", "Spec", {"b": 2, "a": 1})
        assert a == b

    def test_checker_sources_change_the_key(self, monkeypatch):
        key = fp()
        assert len(cache_module.source_digest()) == 64
        # another version of the checker: same request, another address
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        assert fp() != key

    def test_engine_changes_the_key(self):
        # an explicit "ok" and a symbolic "unknown" answer the same
        # module differently; the cache must never conflate them
        assert fp(engine="symbolic") != fp()

    def test_depth_changes_the_key_for_symbolic(self):
        assert fp(engine="symbolic", depth=5) != fp(engine="symbolic",
                                                    depth=6)

    def test_default_depth_is_normalised_into_the_key(self):
        # "symbolic, depth unspecified" and "symbolic at the default
        # depth" are the same request and must share one cache entry
        from repro.engine import DEFAULT_DEPTH

        assert fp(engine="symbolic") == fp(engine="symbolic",
                                           depth=DEFAULT_DEPTH)

    def test_depth_never_fragments_the_explicit_cache(self):
        # the explicit engine ignores depth, so it must not address the
        # result (a stray depth on an explicit request is rejected at
        # the request boundary; this guards the key derivation itself)
        assert fp(depth=5) == fp()

    def test_invariant_order_matters(self):
        # the CLI runs checks in the order given; the report differs
        a = CheckRequest(module_source=COUNTER_TLA,
                         invariants=("Small", "TooSmall")).fingerprint()
        b = CheckRequest(module_source=COUNTER_TLA,
                         invariants=("TooSmall", "Small")).fingerprint()
        assert a != b


def fp_of(prefix: str) -> str:
    """A full-length fingerprint whose first byte picks the shard."""
    return prefix * 32


def one_shard(tmp_path, **bounds) -> ShardedResultCache:
    """A single-shard cache, so every entry lands in ``cache/shard-00``
    and the global bounds are exactly the shard's."""
    return ShardedResultCache(str(tmp_path / "cache"), shards=1, **bounds)


def age(tmp_path, prefix: str, seconds: float) -> None:
    path = tmp_path / "cache" / "shard-00" / (fp_of(prefix) + ".json")
    os.utime(path, (seconds, seconds))


class TestResultCache:
    def test_memory_roundtrip_and_counters(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path / "cache"))
        assert cache.get(fp_of("de")) is None
        cache.put(fp_of("de"), {"verdict": "ok"})
        assert cache.get(fp_of("de")) == {"verdict": "ok"}
        assert fp_of("de") in cache
        assert len(cache) == 1
        counters = cache.counters()
        assert {key: counters[key] for key in
                ("hits", "misses", "evictions", "entries")} == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_disk_persistence_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        first = ShardedResultCache(directory)
        first.put(fp_of("ab"), {"verdict": "violation", "states": 3})
        second = ShardedResultCache(directory)  # fresh process, cold memory
        assert second.get(fp_of("ab")) == {"verdict": "violation",
                                           "states": 3}
        assert second.hits == 1 and second.misses == 0
        assert fp_of("ab") in second and len(second) == 1

    def test_torn_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = one_shard(tmp_path)
        shard = tmp_path / "cache" / "shard-00"
        shard.mkdir()
        (shard / (fp_of("fe") + ".json")).write_text("{not json")
        assert cache.get(fp_of("fe")) is None
        assert cache.misses == 1

    def test_put_is_atomic_on_disk(self, tmp_path):
        cache = one_shard(tmp_path)
        cache.put(fp_of("aa"), {"verdict": "ok"})
        files = [f for f in (tmp_path / "cache" / "shard-00").iterdir()
                 if f.name != ".lock"]  # the evictor's flock file
        # no .tmp leftovers
        assert [f.name for f in files] == [fp_of("aa") + ".json"]
        assert json.loads(files[0].read_text()) == {"verdict": "ok"}


class TestEvictionStats:
    def test_memory_lru_eviction_counts(self, tmp_path):
        cache = one_shard(tmp_path, max_entries=2)
        for n, prefix in enumerate(("aa", "bb")):
            cache.put(fp_of(prefix), {"n": n + 1})
            age(tmp_path, prefix, 1000.0 + n)
        cache.put(fp_of("cc"), {"n": 3})
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.get(fp_of("aa")) is None  # the oldest went
        assert cache.get(fp_of("cc")) == {"n": 3}

    def test_get_refreshes_recency(self, tmp_path):
        # no memory layer: every get reads (and touches) the disk entry
        cache = one_shard(tmp_path, max_entries=2, memory_entries=0)
        for n, prefix in enumerate(("aa", "bb")):
            cache.put(fp_of(prefix), {"n": n + 1})
            age(tmp_path, prefix, 1000.0 + n)
        cache.get(fp_of("aa"))      # aa is now the most recently used
        cache.put(fp_of("cc"), {"n": 3})
        assert cache.get(fp_of("bb")) is None  # bb was LRU, not aa
        assert cache.get(fp_of("aa")) == {"n": 1}

    def test_disk_eviction_by_mtime(self, tmp_path):
        cache = one_shard(tmp_path, max_entries=2)
        shard = tmp_path / "cache" / "shard-00"
        for n, prefix in enumerate(("aa", "bb", "cc")):
            cache.put(fp_of(prefix), {"n": n})
            age(tmp_path, prefix, 1000.0 + n)
        cache.put(fp_of("dd"), {"n": 3})
        assert cache.evictions >= 2
        assert not (shard / (fp_of("aa") + ".json")).exists()
        assert (shard / (fp_of("dd") + ".json")).exists()

    def test_summary_and_to_json_expose_eviction_pressure(self, tmp_path):
        cache = one_shard(tmp_path, max_entries=1)
        cache.get(fp_of("aa"))             # miss
        cache.put(fp_of("aa"), {"n": 1})
        cache.get(fp_of("aa"))             # hit
        age(tmp_path, "aa", 1000.0)
        cache.put(fp_of("bb"), {"n": 2})   # evicts aa
        line = cache.summary(indent="  ")
        assert line.startswith("  result cache: 1 entries")
        assert "1 hits / 1 misses (50.0% hit rate)" in line
        assert "1 evictions" in line
        payload = json.loads(cache.to_json())
        assert payload.pop("bytes") > 0
        assert payload == {"hits": 1, "misses": 1, "evictions": 1,
                           "entries": 1, "shards": 1}

    def test_on_event_feeds_external_counters(self, tmp_path):
        seen = []
        cache = one_shard(tmp_path, max_entries=1,
                          on_event=lambda kind, n: seen.append((kind, n)))
        cache.get(fp_of("aa"))
        cache.put(fp_of("aa"), {"n": 1})
        age(tmp_path, "aa", 1000.0)
        cache.put(fp_of("bb"), {"n": 2})
        assert ("misses", 1) in seen
        assert ("evictions", 1) in seen


class TestShardedResultCache:
    def test_roundtrip_lands_in_a_shard(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path / "cache"), shards=4)
        fingerprint = "ab" * 32
        cache.put(fingerprint, {"verdict": "ok"})
        shard = int("ab", 16) % 4
        assert (tmp_path / "cache" / f"shard-{shard:02x}"
                / (fingerprint + ".json")).exists()
        assert cache.get(fingerprint) == {"verdict": "ok"}

    def test_cold_process_reads_what_another_wrote(self, tmp_path):
        directory = str(tmp_path / "cache")
        ShardedResultCache(directory).put("cd" * 32, {"states": 7})
        second = ShardedResultCache(directory)
        assert second.get("cd" * 32) == {"states": 7}
        assert second.hits == 1

    def test_entry_bound_evicts_lru_within_shard(self, tmp_path):
        # one shard, so the global bound is exactly the shard bound
        cache = ShardedResultCache(str(tmp_path / "cache"), shards=1,
                                   max_entries=2, memory_entries=0)
        shard = tmp_path / "cache" / "shard-00"
        for n, prefix in enumerate(("aa", "bb", "cc")):
            fingerprint = prefix * 32
            cache.put(fingerprint, {"n": n})
            os.utime(shard / (fingerprint + ".json"),
                     (1000.0 + n, 1000.0 + n))
        cache.put("dd" * 32, {"n": 3})
        assert cache.evictions >= 2
        assert not (shard / ("aa" * 32 + ".json")).exists()
        assert cache.get("dd" * 32) == {"n": 3}

    def test_byte_bound_evicts(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path / "cache"), shards=1,
                                   max_entries=None, max_bytes=64,
                                   memory_entries=0)
        shard = tmp_path / "cache" / "shard-00"
        cache.put("aa" * 32, {"blob": "x" * 50})
        os.utime(shard / ("aa" * 32 + ".json"), (1000.0, 1000.0))
        cache.put("bb" * 32, {"blob": "y" * 50})
        assert cache.evictions >= 1
        assert cache.total_bytes() <= 64

    def test_counters_include_bytes_and_shards(self, tmp_path):
        cache = ShardedResultCache(str(tmp_path / "cache"), shards=8)
        cache.put("aa" * 32, {"n": 1})
        counters = cache.counters()
        assert counters["entries"] == 1
        assert counters["shards"] == 8
        assert counters["bytes"] > 0
        assert "evictions" in counters

    def test_rejects_nonsense(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedResultCache(str(tmp_path), shards=0)
        with pytest.raises(ValueError):
            ShardedResultCache(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError):
            ShardedResultCache(str(tmp_path), max_bytes=0)
        with pytest.raises(ValueError):
            ShardedResultCache(str(tmp_path), memory_entries=-1)
