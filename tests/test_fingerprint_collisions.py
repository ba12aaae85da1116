"""Fingerprint collisions are counted, surfaced, and never silent.

64-bit FNV-1a fingerprints can collide (birthday bound ~n^2/2^65).
Both graph classes intern on exact keys -- the full engine's ``State``
dict, the compact engine's packed ints -- so a collision must be
**observed and survived**: distinct states stay distinct, the
count lands on ``ExploreStats.fingerprint_collisions``, and the human
summary says so.  Real collisions are unobtainable in a test, so these
tests force them by monkeypatching the fingerprint functions to a
constant and then assert that nothing merged and nothing stayed quiet.
"""

from __future__ import annotations

import pytest

from repro.checker import ExploreStats, explore, explore_compact
from repro.kernel import state as state_mod
from repro.kernel.packed import PackedCodec
from repro.systems.queue import complete_queue


@pytest.fixture
def spec():
    return complete_queue(2)


def constant_fingerprint(self) -> int:
    return 0xDEAD


class TestBaselineIsClean:
    def test_no_collisions_on_real_fingerprints(self, spec):
        stats = ExploreStats()
        graph = explore(spec, stats=stats)
        assert stats.fingerprint_collisions == 0
        assert "collision(s) detected" not in stats.summary()
        # the bound is still reported, honestly, as a probability
        assert "collision probability bound" in stats.summary()
        assert stats.as_dict()["fingerprint_collisions"] == 0
        assert 0.0 < stats.collision_probability_bound < 1e-9
        assert graph.state_count > 1


class TestMemoryStoreCollisions:
    def test_forced_collision_is_counted_not_silent(self, spec, monkeypatch):
        monkeypatch.setattr(state_mod.State, "fingerprint",
                            constant_fingerprint)
        stats = ExploreStats()
        graph = explore(spec, stats=stats)
        # interning is keyed on full states: nothing merged
        assert graph.state_count == explore(spec).state_count
        assert stats.fingerprint_collisions == graph.state_count - 1
        assert (f"{graph.state_count - 1} collision(s) detected"
                in stats.summary())
        assert (stats.as_dict()["fingerprint_collisions"]
                == graph.state_count - 1)


class TestCompactEngineCollisions:
    def test_forced_collision_is_counted_not_silent(self, spec, monkeypatch):
        reference = explore_compact(spec)
        monkeypatch.setattr(PackedCodec, "fingerprints",
                            lambda self, rows: [0xDEAD] * len(rows))
        stats = ExploreStats()
        graph = explore_compact(spec, stats=stats)
        # interning is keyed on packed ints -- bijective -- so a colliding
        # fingerprint can never merge states
        assert graph.state_count == reference.state_count
        assert graph.parent == reference.parent
        assert graph.fingerprint_collisions == graph.state_count - 1
        assert stats.fingerprint_collisions == graph.state_count - 1
        assert stats.engine == "compact"
        assert (f"{graph.state_count - 1} collision(s) detected"
                in stats.summary())

    def test_collision_count_survives_checkpoint_resume(self, spec, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(PackedCodec, "fingerprints",
                            lambda self, rows: [0xDEAD] * len(rows))
        from repro.checker import resume_compact

        class _Stop(Exception):
            pass

        stats = ExploreStats()

        def bomb(level, row):
            if level >= 1:
                raise _Stop()

        stats.add_level_listener(bomb)
        path = tmp_path / "c.ckpt"
        with pytest.raises(_Stop):
            explore_compact(spec, stats=stats, checkpoint=str(path))
        resumed_stats = ExploreStats()
        graph = resume_compact(str(path), spec, stats=resumed_stats)
        # collisions are recomputed from the packed table on restore and
        # keep accumulating through the resumed levels
        assert graph.fingerprint_collisions == graph.state_count - 1
        assert resumed_stats.fingerprint_collisions == graph.state_count - 1
