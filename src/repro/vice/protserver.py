"""The protection server: coordinated updates to the protection database.

Paper §3.4: "Information about users and groups is stored in a protection
database which is replicated at each cluster server.  Manipulation of this
database is via a protection server, which coordinates the updating of the
database at all sites."  §3.5.2: the prototype had no protection server and
relied on manual updates by operations staff; the reimplementation added it.

Accordingly this module offers both:

* :class:`ProtectionServer` — RPC handlers, hosted on one designated
  cluster server, that mutate the database and push the new snapshot to
  every replica before acknowledging (the revised design); a replica that
  cannot be reached fails the call, so the administrator learns of it;
* :func:`manual_update` — the prototype's "operations staff edits all the
  copies" path, applied instantaneously outside the protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable

from repro.errors import PermissionDenied
from repro.rpc.connection import Connection
from repro.vice.protection import ProtectionDatabase
from repro.vice.replicated import SERVICE_PRINCIPAL
from repro.vice.server import ViceServer

__all__ = ["ProtectionServer", "manual_update"]

ADMIN_GROUP = "system:administrators"


def manual_update(
    servers: Iterable[ViceServer], mutate: Callable[[ProtectionDatabase], None]
) -> None:
    """Apply a mutation to every replica directly (prototype operations staff)."""
    for server in servers:
        mutate(server.protection)


class ProtectionServer:
    """Protection-database coordinator hosted on one cluster server."""

    def __init__(self, server: ViceServer):
        self.server = server
        node = server.node
        node.register("ProtAddUser", self.add_user)
        node.register("ProtRemoveUser", self.remove_user)
        node.register("ProtAddGroup", self.add_group)
        node.register("ProtRemoveGroup", self.remove_group)
        node.register("ProtAddMember", self.add_member)
        node.register("ProtRemoveMember", self.remove_member)

    # -- authorisation ---------------------------------------------------------

    def _require_admin(self, conn: Connection) -> None:
        if conn.username == SERVICE_PRINCIPAL:
            return
        db = self.server.protection
        if db.is_user(conn.username) and ADMIN_GROUP in db.cps(conn.username):
            return
        raise PermissionDenied(f"{conn.username} is not a protection administrator")

    def _mutate(self, conn: Connection, mutate: Callable[[ProtectionDatabase], None]) -> Generator:
        """Authorise, apply locally, then replicate everywhere before replying."""
        self._require_admin(conn)
        yield from self.server.host.compute(0.005)
        mutate(self.server.protection)
        yield from self.server.broadcast(self.server.protection)

    # -- handlers -----------------------------------------------------------------

    def add_user(self, conn: Connection, args: Dict, payload: bytes):
        """Register a user; ``key`` (bytes) is their long-term key."""
        yield from self._mutate(conn, lambda db: db.add_user(args["username"], args.get("key")))
        return {"ok": True}, b""

    def remove_user(self, conn: Connection, args: Dict, payload: bytes):
        """Delete a user everywhere."""
        yield from self._mutate(conn, lambda db: db.remove_user(args["username"]))
        return {"ok": True}, b""

    def add_group(self, conn: Connection, args: Dict, payload: bytes):
        """Create a group."""
        yield from self._mutate(conn, lambda db: db.add_group(args["group"]))
        return {"ok": True}, b""

    def remove_group(self, conn: Connection, args: Dict, payload: bytes):
        """Delete a group everywhere."""
        yield from self._mutate(conn, lambda db: db.remove_group(args["group"]))
        return {"ok": True}, b""

    def add_member(self, conn: Connection, args: Dict, payload: bytes):
        """Add a user or group to a group."""
        yield from self._mutate(conn, lambda db: db.add_member(args["group"], args["member"]))
        return {"ok": True}, b""

    def remove_member(self, conn: Connection, args: Dict, payload: bytes):
        """Remove a direct member from a group.

        Note the paper's caveat: because of replication and recursive
        groups, this path "may be unacceptably slow in emergencies" — the
        fast path is a negative right on the object's ACL instead.
        """
        yield from self._mutate(conn, lambda db: db.remove_member(args["group"], args["member"]))
        return {"ok": True}, b""
