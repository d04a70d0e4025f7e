"""Venus's custodian hint cache.

"Clients use cached location information as hints" (§6.1): Venus remembers
which mount points exist and who their custodians are, so the common case
costs no location traffic at all.  A hint can go stale (a volume moved); the
server then answers :class:`~repro.errors.NotCustodian` with a referral and
Venus refreshes the hint.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.storage import pathutil

__all__ = ["MountHints"]


class MountHints:
    """Longest-prefix cache of location entries, keyed by mount path."""

    def __init__(self):
        self._entries: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        self.refreshes = 0

    def lookup(self, vice_path: str) -> Optional[Dict]:
        """Best known entry for a path (longest prefix), or None."""
        candidate = pathutil.normalize(vice_path)
        while True:
            entry = self._entries.get(candidate)
            if entry is not None:
                self.hits += 1
                return entry
            if candidate == "/":
                self.misses += 1
                return None
            candidate = pathutil.dirname(candidate)

    def install(self, entry: Dict) -> Dict:
        """Record (or refresh) an entry returned by ``GetCustodian``."""
        if entry["mount_path"] in self._entries:
            self.refreshes += 1
        self._entries[entry["mount_path"]] = entry
        return entry

    def forget(self, mount_path: str) -> None:
        """Drop a stale hint."""
        self._entries.pop(mount_path, None)

    def redirect(self, mount_path: str, new_custodian: str) -> None:
        """Apply a NotCustodian referral to a cached hint."""
        entry = self._entries.get(mount_path)
        if entry is not None:
            entry["custodian"] = new_custodian
            self.refreshes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MountHints entries={len(self)} hits={self.hits} misses={self.misses}>"
