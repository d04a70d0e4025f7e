"""What a Vice server remembers about its clients: one table, keyed by fid.

Callback promises (§3.2, §5.2) are the "larger server state" that
invalidate-on-modification costs: per file, the workstation connections
holding cached copies, each called back before a mutation is
acknowledged.  Advisory locks (§3.6) are "single-writer/multi-reader" and
"advisory in nature": nothing in the fetch/store path consults them.
Both are keyed by ``make_fid(volume, vnode)`` and both die with the
server process, so a fid has one record and the table one ``reset()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import LockConflict
from repro.rpc.connection import Connection

__all__ = ["ClientState"]


class _Fid:
    """One fid's state, dropped when it holds neither promise nor lock.
    One promise holder is ``one``; from the second on, ``many`` maps
    connection id to ``Connection`` in first-promise order.  ``lock`` is
    None or maps each lock owner to "read" or "write"."""

    __slots__ = ("one", "many", "lock")


class ClientState:
    """Callback promises and advisory locks, one record per fid."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget every promise and lock, as a crashed server has."""
        self._fids: Dict[str, _Fid] = {}
        self.promises_held = 0
        self.promises_broken = 0
        self.locks_held = 0  # fids with a reader or a writer

    def promise(self, fid: str, conn: Connection) -> None:
        """Promise ``conn`` a call back before ``fid`` changes; a connection
        promised again keeps its place and swaps in ``conn``."""
        record = self._fids.get(fid)
        if record is None:
            record = self._fids[fid] = _Fid()
            record.one = record.many = record.lock = None
        if record.many is None and (record.one is None
                                    or record.one.connection_id == conn.connection_id):
            known = record.one is not None
            record.one = conn
        else:
            many = record.many or {record.one.connection_id: record.one}
            known = conn.connection_id in many
            many[conn.connection_id] = conn
            record.one, record.many = None, many
        if not known:
            self.promises_held += 1

    def holders(self, fid: str, exclude: Optional[Connection] = None) -> List[Connection]:
        """Connections to call back when ``fid`` mutates, in first-promise
        order, less the mutator ``exclude``."""
        record = self._fids.get(fid)
        if record is not None and record.many is not None:
            holders = list(record.many.values())
            if exclude is not None and exclude.connection_id in record.many:
                holders.remove(record.many[exclude.connection_id])
            return holders
        one = record.one if record is not None else None
        if one is None or (exclude is not None and one.connection_id == exclude.connection_id):
            return []
        return [one]

    def forget(self, fid: str, broken: List[Connection]) -> None:
        """Drop and count the promises on ``fid`` just broken to ``broken``."""
        self.promises_broken += len(broken)
        record = self._fids.get(fid)
        if record is None:
            return
        one = record.one
        many = record.many or ({one.connection_id: one} if one is not None else {})
        for conn in broken:
            if many.pop(conn.connection_id, None) is not None:
                self.promises_held -= 1
        record.one = next(iter(many.values())) if len(many) == 1 else None
        record.many = many if len(many) > 1 else None
        if not many and record.lock is None:
            del self._fids[fid]

    def acquire(self, fid: str, owner: str, exclusive: bool) -> None:
        """Take a lock for ``owner`` (user@workstation); raises
        :class:`LockConflict` if incompatible.  Requests are not queued,
        so nothing deadlocks; a reader alone may upgrade to writer."""
        record = self._fids.get(fid)
        if record is None:
            record = self._fids[fid] = _Fid()
            record.one = record.many = record.lock = None
        lock = record.lock or {}
        for holder, mode in lock.items():  # a writer holds the lock alone
            if mode == "write" and holder != owner:
                raise LockConflict(f"{fid} is write-locked by {holder}")
        if exclusive and lock.keys() - {owner}:
            raise LockConflict(f"{fid} has active readers")
        if not lock:
            record.lock = lock
            self.locks_held += 1
        lock[owner] = "write" if exclusive else lock.get(owner, "read")

    def release(self, fid: str, owner: str) -> None:
        """Release whatever ``owner`` holds on ``fid`` (idempotent)."""
        record = self._fids.get(fid)
        if record is None or record.lock is None or record.lock.pop(owner, None) is None:
            return
        if not record.lock:
            record.lock = None
            self.locks_held -= 1
            if record.one is None and record.many is None:
                del self._fids[fid]

    def lock_holders(self, fid: str) -> Dict[str, str]:
        """Owner -> "read" / "write" for each lock holder of ``fid``."""
        record = self._fids.get(fid)
        return dict(record.lock or {}) if record is not None else {}
