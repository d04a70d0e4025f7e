"""Venus's whole-file cache.

"Part of the disk on each workstation is used to store local files, while
the rest is used as a cache of files in Vice" (§3.2).  Entire files are
cached; the cache state is therefore tiny compared to a page cache — one
entry per file — which is the property the paper leans on.

Two eviction policies, matching §3.5.1 and §5.3:

* ``"count"`` — the prototype's simple LRU bounded by *number of files*
  ("Venus limits the total number of files in the cache rather than the
  total size ... In view of our negative experience with this approach...");
* ``"space"`` — the reimplementation's space-limited LRU.

Entries with open descriptors or unwritten dirty data are never evicted.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import NoSpace
from repro.sim.kernel import Simulator

__all__ = ["CacheEntry", "WholeFileCache"]


class CacheEntry:
    """One cached Vice file, with the status Venus needs to reuse it."""

    __slots__ = (
        "vice_path",
        "fid",
        "data",
        "version",
        "status",
        "dirty",
        "callback_valid",
        "last_used",
        "open_count",
    )

    def __init__(self, vice_path: str, fid: str, data: bytes, version: int, status: Dict):
        self.vice_path = vice_path
        self.fid = fid
        # Whatever Fetch delivered: ``bytes``, or a provisioned body still
        # unbuilt (the open builds it).  Accounting needs only ``len``.
        self.data = data
        self.version = version
        self.status = status
        self.dirty = False
        self.callback_valid = True
        self.last_used = 0.0
        self.open_count = 0

    @property
    def size(self) -> int:
        """Cached bytes."""
        return len(self.data)

    @property
    def evictable(self) -> bool:
        """True when LRU may discard this entry."""
        return self.open_count == 0 and not self.dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in [("D", self.dirty), ("V", self.callback_valid)]
            if on
        )
        return f"<CacheEntry {self.vice_path} v{self.version} {self.size}B {flags}>"


class WholeFileCache:
    """LRU cache of whole Vice files, keyed by Vice path and by fid."""

    def __init__(
        self,
        sim: Simulator,
        policy: str = "space",
        max_files: int = 500,
        max_bytes: int = 20_000_000,
    ):
        if policy not in ("count", "space"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.sim = sim
        self.policy = policy
        self.max_files = max_files
        self.max_bytes = max_bytes
        self._entries: Dict[str, CacheEntry] = {}
        self._by_fid: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(list(self._entries.values()))

    @property
    def used_bytes(self) -> int:
        """Total cached data bytes."""
        return sum(entry.size for entry in self._entries.values())

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (the paper's >80 %)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- lookup ------------------------------------------------------------

    def lookup(self, vice_path: str) -> Optional[CacheEntry]:
        """The entry for a path, or None; does not count hit/miss."""
        entry = self._entries.get(vice_path)
        if entry is not None:
            entry.last_used = self.sim.now
        return entry

    def lookup_fid(self, fid: str) -> Optional[CacheEntry]:
        """The entry holding a fid, or None."""
        path = self._by_fid.get(fid)
        return self._entries.get(path) if path is not None else None

    def note_hit(self) -> None:
        """Count an open served without fetching."""
        self.hits += 1

    def note_miss(self) -> None:
        """Count an open that required a fetch."""
        self.misses += 1

    # -- mutation ------------------------------------------------------------

    def insert(self, entry: CacheEntry) -> CacheEntry:
        """Add (or replace) an entry, evicting LRU victims to fit."""
        old = self._entries.get(entry.vice_path)
        if old is not None:
            self._by_fid.pop(old.fid, None)
        entry.last_used = self.sim.now
        self._entries[entry.vice_path] = entry
        self._by_fid[entry.fid] = entry.vice_path
        self._enforce_limits(protect=entry)
        return entry

    def remove(self, vice_path: str) -> None:
        """Discard an entry outright."""
        entry = self._entries.pop(vice_path, None)
        if entry is not None:
            self._by_fid.pop(entry.fid, None)

    def rename(self, old_path: str, new_path: str) -> None:
        """Track a rename: the fid (and data) is unchanged, the key moves."""
        entry = self._entries.pop(old_path, None)
        if entry is None:
            return
        replaced = self._entries.get(new_path)
        if replaced is not None and replaced is not entry:
            self._by_fid.pop(replaced.fid, None)  # the target was clobbered
        entry.vice_path = new_path
        self._entries[new_path] = entry
        self._by_fid[entry.fid] = new_path

    def invalidate_fid(self, fid: str) -> bool:
        """Mark the entry holding ``fid`` stale (a callback break)."""
        entry = self.lookup_fid(fid)
        if entry is None:
            return False
        entry.callback_valid = False
        self.invalidations += 1
        return True

    def invalidate_all(self) -> None:
        """Mark everything stale (connection loss: all promises void)."""
        for entry in self._entries.values():
            entry.callback_valid = False

    def _enforce_limits(self, protect: CacheEntry) -> None:
        def over_limit() -> bool:
            if self.policy == "count":
                return len(self._entries) > self.max_files
            return self.used_bytes > self.max_bytes

        while over_limit():
            victim = self._pick_victim(protect)
            if victim is None:
                # Nothing evictable: a pathological working set. The count
                # policy tolerates overflow (the prototype's flaw: bytes are
                # unbounded anyway); the space policy must refuse.
                if self.policy == "space" and protect.size > self.max_bytes:
                    self.remove(protect.vice_path)
                    raise NoSpace(
                        f"file of {protect.size} bytes cannot fit cache of {self.max_bytes}"
                    )
                break
            self.remove(victim.vice_path)
            self.evictions += 1

    def _pick_victim(self, protect: CacheEntry) -> Optional[CacheEntry]:
        candidates = [
            entry
            for entry in self._entries.values()
            if entry is not protect and entry.evictable
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_used)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WholeFileCache {self.policy} files={len(self)}"
            f" bytes={self.used_bytes} hit_ratio={self.hit_ratio:.2f}>"
        )
