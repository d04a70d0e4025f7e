"""Replicated databases: one copy-on-write replica and one sync path.

Paper §3.1 and §3.4: every cluster server holds a complete copy of the
location and protection databases, and a change is pushed to every site.
Both databases are this one protocol.  A :class:`ReplicatedDatabase`
subclass adds only its state class (a ``version`` and a ``copy()``), its
record format (``_record`` / ``_from_record``), its memos
(``_clear_memos``) and its mutators.  Replicas holding the same version
share one state: a snapshot hands it over by reference, and a replica
copies it before its first local write.

A :class:`DatabaseHolder` is a host holding replicas — a cluster server,
or on a redundant campus the replication controller, which holds a
location replica — so the location database has one version sequence.
Holders talk to each other as the internal ``vice`` principal.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, Mapping, Optional

from repro.errors import ReproError, ViceError

__all__ = ["DatabaseHolder", "ReplicatedDatabase", "SERVICE_PRINCIPAL", "Shared"]

SERVICE_PRINCIPAL = "vice"  # server-to-server identity


class Shared(dict):
    """A dict that marshals as its items and also carries ``state``, the
    in-process object those items describe.

    A receiver handed this very object (the in-process fast path) may
    adopt ``state`` by reference; one that decoded the bytes holds a plain
    dict and must rebuild from the items.  ``state`` never reaches the wire.
    """

    __slots__ = ("state",)

    def __init__(self, state: Any, items: Mapping[str, Any]):
        super().__init__(items)
        self.state = state


class ReplicatedDatabase:
    """One replica.  ``SYNC`` is the wire procedure carrying its snapshots."""

    SYNC = ""

    def __init__(self, state):
        self._state = state
        # True once another replica may hold ``_state`` (it was handed out
        # by snapshot() or adopted from one): the next write copies it.
        self._shared = False

    @property
    def state(self):
        """The version this replica holds (shared; never write it)."""
        return self._state

    @property
    def version(self) -> int:
        return self._state.version

    def _new_version(self):
        """The state to change into the next version: this replica's own,
        copied first if another replica may hold it."""
        if self._shared:
            self._state = self._state.copy()
            self._shared = False
        self._state.version += 1
        return self._state

    def snapshot(self) -> Shared:
        """Full copy for replica synchronisation: the marshal-friendly
        record, carrying this version's state for an in-process receiver
        to adopt by reference (from now on this replica copies before it
        writes)."""
        self._shared = True
        return Shared(self._state, self._record())

    def load_snapshot(self, snapshot: Dict) -> None:
        """Replace local state with a replica snapshot: the carried state,
        shared, or — for a snapshot decoded from bytes — a private one
        rebuilt from the record."""
        if isinstance(snapshot, Shared):
            self._state, self._shared = snapshot.state, True
        else:
            self._state, self._shared = self._from_record(snapshot), False
        # The snapshot may carry the version number of the state it
        # replaces (replica catch-up), so the memos go explicitly.
        self._clear_memos()


class DatabaseHolder:
    """A host holding replicas: it serves their syncs and pushes its own.
    The host class provides ``host``, ``node``, ``service_key``, a
    ``_peer_connections`` dict and ``holders``: for each database's
    ``SYNC``, every host holding a replica (the campus wires it)."""

    # Whether a broadcast may leave an unreachable holder behind without
    # failing: only for a holder that later pushes a returning host the
    # current version itself (the replication controller's rejoin).
    heals_missed_holders = False

    def peer(self, name: str) -> Generator:
        """An authenticated connection to another Vice host (cached)."""
        conn = self._peer_connections.get(name)
        if conn is not None and conn.established and not conn.closed:
            return conn
        conn = yield from self.node.connect(name, SERVICE_PRINCIPAL, self.service_key)
        self._peer_connections[name] = conn
        return conn

    def _require_service(self, conn) -> None:
        if conn.username != SERVICE_PRINCIPAL:
            raise ViceError("administrative call from a non-Vice principal")

    def serve(self, *databases: ReplicatedDatabase) -> None:
        """Accept pushed snapshots of each of ``databases``."""
        for database in databases:
            self.node.register(database.SYNC,
                               functools.partial(self._sync_handler, database))

    def _sync_handler(self, database: ReplicatedDatabase, conn, args, payload):
        """Install a newer snapshot pushed by another holder (in process,
        the sender's state itself; it copies on its next write)."""
        self._require_service(conn)
        yield from self.host.compute(0.005)
        if args["snapshot"]["version"] > database.version:
            database.load_snapshot(args["snapshot"])
        return {"version": database.version}, b""

    def push(self, database: ReplicatedDatabase, name: str,
             snapshot: Optional[Shared] = None) -> Generator:
        """Send holder ``name`` this replica's version."""
        conn = yield from self.peer(name)
        yield from self.node.call(conn, database.SYNC,
                                  {"snapshot": snapshot or database.snapshot()})

    def sync_targets(self, database: ReplicatedDatabase) -> List[str]:
        """The holders a broadcast of ``database`` pushes to."""
        return [name for name in self.holders[database.SYNC]
                if name != self.host.name]

    def broadcast(self, database: ReplicatedDatabase) -> Generator:
        """Push this replica's version to every other holder ("changing the
        location database is relatively expensive because it involves
        updating all the cluster servers").

        A holder that cannot be reached keeps its old version; the others
        still get the new one.  Then the first failure is raised, so the
        caller (and the administrator behind it) learns the change is not
        everywhere — unless this holder heals missed ones itself."""
        snapshot = database.snapshot()
        failure: Optional[ReproError] = None
        for name in self.sync_targets(database):
            try:
                yield from self.push(database, name, snapshot)
            except ReproError as exc:
                failure = failure or exc
        if failure is not None and not self.heals_missed_holders:
            raise failure
