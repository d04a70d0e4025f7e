"""Server-side callback registry: invalidate-on-modification cache validity.

Paper §3.2/§5.2: the prototype validated caches on every open, and those
validation calls turned out to be 65 % of all server traffic; "the cost of
frequent cache validation is high enough to warrant the additional
complexity of an invalidate-on-modification approach".  The registry is
that additional complexity: the server remembers, per file, which
workstation connections hold cached copies ("larger server state"), and on
every mutation the file server calls each of them back.
"""

from __future__ import annotations

from typing import Dict, List

from repro.rpc.connection import Connection

__all__ = ["CallbackRegistry"]


class CallbackRegistry:
    """Which connections hold a callback promise on which key (fid/path)."""

    def __init__(self):
        self._promises: Dict[str, Dict[str, Connection]] = {}
        self.promises_made = 0
        self.promises_broken = 0

    def register(self, key: str, conn: Connection) -> None:
        """Promise ``conn`` notification before ``key`` changes."""
        holders = self._promises.setdefault(key, {})
        if conn.connection_id not in holders:
            self.promises_made += 1
        holders[conn.connection_id] = conn

    def holders(self, key: str, exclude: Connection = None) -> List[Connection]:
        """Connections to notify when ``key`` mutates (excluding the mutator)."""
        holders = self._promises.get(key, {})
        return [
            conn
            for cid, conn in holders.items()
            if exclude is None or cid != exclude.connection_id
        ]

    def forget_holder(self, key: str, conn: Connection) -> None:
        """Drop one holder's promise (it re-fetched or evicted the file)."""
        holders = self._promises.get(key)
        if holders:
            holders.pop(conn.connection_id, None)
            if not holders:
                del self._promises[key]

    @property
    def state_size(self) -> int:
        """Total promises outstanding — the memory cost the paper weighs."""
        return sum(len(holders) for holders in self._promises.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CallbackRegistry keys={len(self._promises)} promises={self.state_size}>"
