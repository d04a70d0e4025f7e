"""Unit tests for the whole-file cache and the mount hint cache."""

import pytest

from repro.errors import NoSpace
from repro.sim import Simulator
from repro.venus.cache import CacheEntry, WholeFileCache
from repro.venus.hints import MountHints
from tests.helpers import alice_session, run, small_campus


def entry(path, size=100, fid=None, version=1):
    return CacheEntry(path, fid or f"vol.{abs(hash(path)) % 10000}", b"x" * size, version, {})


@pytest.fixture
def sim():
    return Simulator()


class TestLookupAndInsert:
    def test_insert_and_lookup(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a"))
        assert cache.lookup("/a") is not None
        assert cache.lookup("/missing") is None

    def test_lookup_by_fid(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a", fid="v.1"))
        assert cache.lookup_fid("v.1").vice_path == "/a"
        assert cache.lookup_fid("v.999") is None

    def test_replace_updates_fid_index(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a", fid="v.1"))
        cache.insert(entry("/a", fid="v.2"))
        assert cache.lookup_fid("v.1") is None
        assert cache.lookup_fid("v.2") is not None

    def test_remove(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a", fid="v.1"))
        cache.remove("/a")
        assert cache.lookup("/a") is None
        assert cache.lookup_fid("v.1") is None

    def test_rename_moves_key_keeps_fid(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a", fid="v.1"))
        cache.rename("/a", "/b")
        assert cache.lookup("/a") is None
        assert cache.lookup("/b").fid == "v.1"
        assert cache.lookup_fid("v.1").vice_path == "/b"

    def test_hit_ratio(self, sim):
        cache = WholeFileCache(sim)
        cache.note_hit()
        cache.note_hit()
        cache.note_miss()
        assert cache.hit_ratio == pytest.approx(2 / 3)
        assert WholeFileCache(sim).hit_ratio == 0.0


class TestCountPolicy:
    """The prototype's LRU bounded by file count (§3.5.1)."""

    def test_evicts_lru_beyond_count(self, sim):
        cache = WholeFileCache(sim, policy="count", max_files=2)
        cache.insert(entry("/a"))
        sim.run(until=1.0)
        cache.insert(entry("/b"))
        sim.run(until=2.0)
        cache.insert(entry("/c"))
        assert cache.lookup("/a") is None  # oldest went
        assert len(cache) == 2

    def test_recent_touch_protects(self, sim):
        cache = WholeFileCache(sim, policy="count", max_files=2)
        cache.insert(entry("/a"))
        sim.run(until=1.0)
        cache.insert(entry("/b"))
        sim.run(until=2.0)
        cache.lookup("/a")  # touch /a: now /b is LRU
        cache.insert(entry("/c"))
        assert cache.lookup("/b") is None
        assert cache.lookup("/a") is not None

    def test_count_policy_ignores_bytes(self, sim):
        """The prototype flaw: file count is bounded, bytes are not."""
        cache = WholeFileCache(sim, policy="count", max_files=10, max_bytes=100)
        for index in range(5):
            cache.insert(entry(f"/big{index}", size=10_000))
        assert len(cache) == 5
        assert cache.used_bytes == 50_000  # way past max_bytes: not enforced


class TestSpacePolicy:
    """The reimplementation's space-limited LRU (§5.3)."""

    def test_evicts_until_bytes_fit(self, sim):
        cache = WholeFileCache(sim, policy="space", max_bytes=250)
        cache.insert(entry("/a", size=100))
        sim.run(until=1.0)
        cache.insert(entry("/b", size=100))
        sim.run(until=2.0)
        cache.insert(entry("/c", size=100))
        assert cache.lookup("/a") is None
        assert cache.used_bytes <= 250

    def test_large_insert_evicts_several(self, sim):
        cache = WholeFileCache(sim, policy="space", max_bytes=300)
        for index, path in enumerate(("/a", "/b", "/c")):
            cache.insert(entry(path, size=100))
            sim.run(until=index + 1.0)
        cache.insert(entry("/huge", size=250))
        assert cache.lookup("/huge") is not None
        assert cache.used_bytes <= 300

    def test_oversized_file_rejected(self, sim):
        cache = WholeFileCache(sim, policy="space", max_bytes=100)
        with pytest.raises(NoSpace):
            cache.insert(entry("/monster", size=1000))
        assert cache.lookup("/monster") is None

    def test_space_policy_ignores_count(self, sim):
        cache = WholeFileCache(sim, policy="space", max_files=2, max_bytes=10_000)
        for index in range(5):
            cache.insert(entry(f"/f{index}", size=10))
        assert len(cache) == 5


class TestPinning:
    def test_open_entries_not_evicted(self, sim):
        cache = WholeFileCache(sim, policy="count", max_files=1)
        pinned = entry("/open")
        pinned.open_count = 1
        cache.insert(pinned)
        sim.run(until=1.0)
        cache.insert(entry("/new"))
        assert cache.lookup("/open") is not None  # survived despite LRU

    def test_dirty_entries_not_evicted(self, sim):
        cache = WholeFileCache(sim, policy="count", max_files=1)
        dirty = entry("/dirty")
        dirty.dirty = True
        cache.insert(dirty)
        sim.run(until=1.0)
        cache.insert(entry("/new"))
        assert cache.lookup("/dirty") is not None


class TestInvalidation:
    def test_invalidate_fid_marks_stale(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a", fid="v.1"))
        assert cache.invalidate_fid("v.1")
        assert not cache.lookup("/a").callback_valid
        assert cache.invalidations == 1

    def test_invalidate_unknown_fid(self, sim):
        cache = WholeFileCache(sim)
        assert not cache.invalidate_fid("v.404")

    def test_invalidate_all(self, sim):
        cache = WholeFileCache(sim)
        cache.insert(entry("/a"))
        cache.insert(entry("/b"))
        cache.invalidate_all()
        assert all(not e.callback_valid for e in cache)

    def test_bad_policy_rejected(self, sim):
        with pytest.raises(ValueError):
            WholeFileCache(sim, policy="magic")


class TestMountHints:
    def test_longest_prefix(self):
        hints = MountHints()
        hints.install({"mount_path": "/", "volume_id": "root", "custodian": "s0", "ro_servers": []})
        hints.install({"mount_path": "/usr/a", "volume_id": "ua", "custodian": "s1", "ro_servers": []})
        assert hints.lookup("/usr/a/file")["volume_id"] == "ua"
        assert hints.lookup("/unix/bin")["volume_id"] == "root"

    def test_miss_returns_none(self):
        hints = MountHints()
        assert hints.lookup("/anything") is None
        assert hints.misses == 1

    def test_redirect_updates_custodian(self):
        hints = MountHints()
        hints.install({"mount_path": "/usr/a", "volume_id": "ua", "custodian": "s1", "ro_servers": []})
        hints.redirect("/usr/a", "s9")
        assert hints.lookup("/usr/a/f")["custodian"] == "s9"

    def test_forget(self):
        hints = MountHints()
        hints.install({"mount_path": "/usr/a", "volume_id": "ua", "custodian": "s1", "ro_servers": []})
        hints.forget("/usr/a")
        assert hints.lookup("/usr/a/f") is None

    def test_refresh_counted(self):
        hints = MountHints()
        record = {"mount_path": "/m", "volume_id": "v", "custodian": "s", "ro_servers": []}
        hints.install(record)
        hints.install(dict(record))
        assert hints.refreshes == 1


class TestCampusBounds:
    """Each mode enforces one of ``SystemConfig``'s two cache bounds
    (``cache_policy``); the other is set to no effect."""

    @pytest.mark.parametrize("mode,ignored", [
        ("prototype", {"cache_max_bytes": 100}),
        ("revised", {"cache_max_files": 2}),
    ], ids=["prototype", "revised"])
    def test_the_bound_a_mode_ignores_evicts_nothing(self, mode, ignored):
        campus = small_campus(mode=mode, **ignored)
        session = alice_session(campus)
        for index in range(5):
            run(campus, session.write_file(f"/vice/usr/alice/f{index}", b"x" * 60))
        cache = campus.workstation(0).venus.cache
        assert len(cache) >= 5 and cache.used_bytes >= 300
        assert cache.evictions == 0
