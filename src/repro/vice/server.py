"""A Vice cluster server.

One :class:`ViceServer` per cluster (Fig. 2-2): it stores the volumes it is
custodian for (plus read-only replicas), answers the file protocol of
:mod:`repro.vice.fileserver`, and holds full replicas of the location and
protection databases as a :class:`~repro.vice.replicated.DatabaseHolder`
(which installs their syncs and broadcasts its own changes).

``mode`` selects the paper's two implementations end to end:

====================  ============================  =========================
aspect                ``"prototype"``               ``"revised"``
====================  ============================  =========================
server structure      per-client Unix processes     single process with LWPs
transport             byte stream: 0.500 s setup    datagrams: 0.006 s setup
path traversal        on the server, per call       on Venus, fid calls
status storage        `.admin` file on disk         in-memory vnode cache
cache validation      check-on-open (default)       callbacks (default)
file mode bits        ignored                       checked
dir rename, symlink   refused                       supported
lock service          dedicated lock process        shared lock table
====================  ============================  =========================

What the table implies when a campus is built is the ``naming`` ...
``vice_cost_model`` properties of :class:`~repro.system.config.SystemConfig`:
who walks a pathname is Venus's ``naming``, and what the server charges
for a walk and for status is :class:`~repro.vice.costs.ViceCosts` data.
The transport is cost data too: only a connection's setup CPU,
:attr:`RpcCosts.connection_setup_cpu <repro.rpc.costs.RpcCosts>`, tells a
stream from a datagram; calls retransmit alike.
The only run-time forks on ``mode`` left are the three §5.1 rows, in
:mod:`repro.vice.fileserver`: mode bits, directory rename and symlinks.

Administrative operations (volume move, read-only release, database sync)
are generators run as simulation processes; they use the same authenticated
RPC fabric as everything else, under the internal ``vice`` principal.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.errors import FileNotFound, LeaseExpired, NotCustodian
from repro.hosts import Host
from repro.rpc import marshal
from repro.rpc.connection import Connection
from repro.rpc.node import RpcNode
from repro.sim.metrics import Counter
from repro.sim.resources import Resource
from repro.vice.clients import ClientState
from repro.vice.fileserver import SERVICE_PRINCIPAL, FileService
from repro.vice.location import LocationDatabase, LocationEntry
from repro.vice.protection import ProtectionDatabase
from repro.vice.replicated import DatabaseHolder
from repro.vice.volume import Volume

__all__ = ["ViceServer"]

# Registry instruments of every server, published as vice.<server>.<suffix>.
# Getters read through the server, so they follow object replacement
# (reset_counters swaps the Counters; salvage resets the client table in
# place).  The last two are the campus-scale fast paths' memos.
INSTRUMENTS = {
    "call_mix": ("counter", lambda server: server.call_mix),
    "volume_traffic": ("counter", lambda server: server.volume_traffic),
    "usage_by_user": ("counter", lambda server: server.usage_by_user),
    "callbacks.held": ("gauge", lambda server: server.clients.promises_held),
    "callbacks.broken": ("counter", lambda server: server.clients.promises_broken),
    "locks.held": ("gauge", lambda server: server.clients.locks_held),
    "volumes": ("gauge", lambda server: len(server.volumes)),
    "files": ("gauge", lambda server: sum(
        volume.file_count for volume in server.volumes.values())),
    "used_bytes": ("gauge", lambda server: sum(
        volume.used_bytes for volume in server.volumes.values())),
    "protection.cps_cache": ("counter", lambda server: {
        "hits": server.protection.cps_hits,
        "misses": server.protection.cps_misses}),
    "location.resolve_cache": ("counter", lambda server: {
        "hits": server.location.resolve_hits,
        "misses": server.location.resolve_misses}),
}


class ViceServer(DatabaseHolder):
    """One cluster server: storage, protocol, and replicated databases."""

    def __init__(self, host: Host, config, service_key: bytes):
        """``config`` is the campus's :class:`~repro.system.config.SystemConfig`
        (already validated); what the server reads at run time is copied here."""
        self.host = host
        self.sim = host.sim
        self.mode = config.mode
        self.validation_mode = config.validation_policy
        self.costs = config.vice_cost_model
        self.service_key = service_key

        self.protection = ProtectionDatabase()
        self.location = LocationDatabase()
        self.volumes: Dict[str, Volume] = {}
        self.clients = ClientState()  # callback promises and §3.6 locks
        # Per-client processes share no lock table: a dedicated process.
        self._lock_process = (
            Resource(self.sim, capacity=1, name=f"lockserver:{host.name}")
            if config.server_structure == "process"
            else None
        )

        self.node = RpcNode(
            host,
            server_mode=config.server_structure,
            auth_key_lookup=self._lookup_key,
            max_server_processes=config.max_server_processes,
            **config.rpc_settings,
        )
        self.call_mix = Counter(f"vice-mix:{host.name}")
        # §3.6 monitoring hooks: where each volume's data traffic comes
        # from (for custodian-reassignment recommendations), and per-user
        # resource usage (tracked but not charged — "free resources" until
        # accounting is convincingly needed).
        self.volume_traffic = Counter(f"volume-traffic:{host.name}")
        self.usage_by_user = Counter(f"usage:{host.name}")
        self._peer_connections: Dict[str, Connection] = {}
        self.holders: Dict[str, List[str]] = {}  # wired by ITCSystem
        self._vnode_locks: Dict[str, Resource] = {}
        # Redundancy agent (repro.vice.replication); attached by ITCSystem
        # only when SystemConfig.replication or .erasure is set, so plain
        # campuses carry no heartbeat traffic at all.
        self.replication = None

        self.files = FileService(self)
        self.files.register_all()
        self.serve(self.location, self.protection)
        self.node.register("ReceiveVolume", self._receive_volume_handler)
        self.node.register("DropVolume", self._drop_volume_handler)

        self.sim.metrics.attach(f"vice.{host.name}", self, INSTRUMENTS)

    # ------------------------------------------------------------------
    # authentication
    # ------------------------------------------------------------------

    def _lookup_key(self, username: str) -> bytes:
        if username == SERVICE_PRINCIPAL:
            return self.service_key
        return self.protection.user_key(username)

    # ------------------------------------------------------------------
    # volume lookup used by the file service
    # ------------------------------------------------------------------

    def volume_for_entry(self, entry: LocationEntry, want_write: bool) -> Volume:
        """This server's copy for a location entry, or a custodian referral."""
        if entry.custodian == self.host.name:
            volume = self.volumes.get(entry.volume_id)
            if volume is not None and volume.replica_role != "secondary":
                if want_write:
                    self._check_write_lease(volume)
                return volume
        if not want_write and self.host.name in entry.ro_servers:
            replica = self.volumes.get(entry.volume_id + "-ro")
            if replica is not None:
                return replica
        raise NotCustodian(entry.custodian)

    def volume_by_id(self, volume_id: str, want_write: bool) -> Volume:
        """Resolve a fid's volume component at this server."""
        volume = self.volumes.get(volume_id)
        if volume is not None:
            if volume.replica_role == "secondary":
                # A read-write secondary never serves clients directly;
                # refer them to the current primary.
                entry = self.location.entry_for_volume(volume_id)
                raise NotCustodian(entry.custodian)
            if want_write:
                self._check_write_lease(volume)
            return volume
        base = volume_id[:-3] if volume_id.endswith("-ro") else volume_id
        entry = self.location.entry_for_volume(base)
        raise NotCustodian(entry.custodian)

    def _check_write_lease(self, volume: Volume) -> None:
        """Fence writes at a primary whose controller lease has lapsed."""
        if (
            self.replication is not None
            and volume.replica_role == "primary"
            and not self.replication.lease_valid()
        ):
            raise LeaseExpired(
                f"{self.host.name} holds no write lease for {volume.volume_id}"
            )

    def replicate_mutation(self, volume: Volume, record: Dict, payload: bytes = b"",
                           frags: Optional[List[bytes]] = None) -> Generator:
        """Propagate one applied mutation to the volume's other members
        (``payload``, or each its own slot of a striped store's ``frags``).

        A no-op (no yields, no cost) unless this server runs replication
        and the volume is a redundant primary, so plain volumes take
        exactly the code path they always did.
        """
        if self.replication is None or volume.replica_role != "primary":
            return
        record = dict(record, vv=dict(volume.bump_version_vector(self.host.name)))
        yield from self.replication.propagate(volume, record, payload, frags)

    # ------------------------------------------------------------------
    # local administration (pre-simulation setup)
    # ------------------------------------------------------------------

    def add_volume(self, volume: Volume) -> None:
        """Attach a volume to this server's storage."""
        self.volumes[volume.volume_id] = volume

    def vnode_guard(self, fid: str) -> Generator:
        """Serialise fetch/store on one file, like holding the vnode lock.

        This is what guarantees §3.6 action consistency: "a workstation
        which fetches a file at the same time that another workstation is
        storing it will either receive the old version or the new one, but
        never a partially modified version" — and, with callbacks, that a
        promise registered by a fetch cannot silently survive a concurrent
        store.  Usage: ``guard = yield from server.vnode_guard(fid)`` then
        ``server.vnode_release(fid, guard)`` in a ``finally``.
        """
        lock = self._vnode_locks.get(fid)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"vnode:{fid}")
            self._vnode_locks[fid] = lock
        request = lock.request()
        yield request
        return request

    def vnode_release(self, fid: str, request) -> None:
        """Release a :meth:`vnode_guard` claim (drops idle locks)."""
        lock = self._vnode_locks.get(fid)
        if lock is None:
            return
        lock.release(request)
        if lock.in_use == 0 and lock.queue_length == 0:
            del self._vnode_locks[fid]

    def lock_serialization(self) -> Generator:
        """Prototype lock calls serialise through the dedicated lock process."""
        if self._lock_process is None:
            return
        request = self._lock_process.request()
        yield request
        try:
            # Crossing into the lock server process and back: two switches.
            yield from self.host.compute(2 * self.node.costs.context_switch_cpu)
        finally:
            self._lock_process.release(request)

    # ------------------------------------------------------------------
    # server-to-server fabric
    # ------------------------------------------------------------------

    def _receive_volume_handler(self, conn: Connection, args, payload):
        """Accept a volume shipped by a peer (move or replica placement).

        The snapshot arrives by reference unless the connection ran the
        full cipher, and the new copy adopts its bodies as they come."""
        self._require_service(conn)
        snapshot = marshal.carried(payload)
        yield from self.host.compute(0.010 + len(payload) * self.costs.per_byte_cpu)
        yield from self.host.disk.access(len(payload), write=True, sequential=True)
        volume = Volume.from_snapshot(snapshot, clock=lambda: self.sim.now)
        role = args.get("role")
        if role is not None:
            existing = self.volumes.get(volume.volume_id)
            if existing is not None and self.replication is not None:
                # Count writes on the copy being overwritten that the
                # incoming authoritative copy never saw (a primary that
                # crashed mid-propagation): those writes are lost here.
                self.replication.divergent_discarded += existing.divergent_against(
                    volume.version_vector
                )
            volume.replica_role = role
        self.add_volume(volume)
        return {"volume_id": volume.volume_id}, b""

    def _drop_volume_handler(self, conn: Connection, args, payload):
        """Discard a local volume copy (the tail end of a move)."""
        self._require_service(conn)
        yield from self.host.compute(0.005)
        existing = self.volumes.pop(args["volume_id"], None)
        if (existing is not None and self.replication is not None
                and "vv" in args):
            # The caller supplied the authoritative copy's version vector:
            # writes only this stale copy ever held die with it.
            self.replication.divergent_discarded += existing.divergent_against(
                args["vv"] or {}
            )
        return {"ok": True}, b""

    # ------------------------------------------------------------------
    # distributed administration (run as simulation processes)
    # ------------------------------------------------------------------

    def move_volume(self, volume_id: str, target_server: str) -> Generator:
        """Relocate a volume to another server.

        The volume is offline for the duration — "the files whose custodians
        are being modified are unavailable during the change" — and the move
        ends with a campus-wide location-database update.
        """
        volume = self.volumes.get(volume_id)
        if volume is None:
            raise FileNotFound(f"volume {volume_id!r} not stored here")
        volume.take_offline()
        try:
            snapshot = marshal.Marshalled(volume.snapshot())
            yield from self.host.disk.access(len(snapshot), sequential=True)
            yield from self.host.compute(len(snapshot) * self.costs.per_byte_cpu)
            conn = yield from self.peer(target_server)
            yield from self.node.call(
                conn, "ReceiveVolume", {}, payload=snapshot,
                expect_bytes=len(snapshot),
            )
            del self.volumes[volume_id]
            self.location.reassign(volume_id, target_server)
            yield from self.broadcast(self.location)
        finally:
            volume.bring_online()
        # The shipped copy arrives online; remote Veni discover the new
        # custodian through NotCustodian referrals and location queries.

    def release_readonly(self, volume_id: str, replica_servers: List[str]) -> Generator:
        """Clone a volume and place read-only replicas (§3.2).

        The clone is atomic at the custodian; placement then ships the frozen
        snapshot to each replica site, and the location database gains the
        ``ro_servers`` list so Veni can fetch from the nearest copy.  The
        clone is immutable, so every replica shares its bodies.
        """
        volume = self.volumes.get(volume_id)
        if volume is None:
            raise FileNotFound(f"volume {volume_id!r} not stored here")
        clone = volume.clone(volume_id + "-ro")
        snapshot = marshal.Marshalled(clone.snapshot())
        for name in replica_servers:
            if name == self.host.name:
                self.add_volume(clone)
                continue
            yield from self.host.disk.access(len(snapshot), sequential=True)
            conn = yield from self.peer(name)
            yield from self.node.call(
                conn, "ReceiveVolume", {}, payload=snapshot,
                expect_bytes=len(snapshot),
            )
        self.location.set_ro_servers(volume_id, list(replica_servers))
        yield from self.broadcast(self.location)

    def salvage_all(self) -> Generator:
        """Post-crash recovery: salvage every volume before serving again.

        Run after ``host.recover()``; each volume goes offline, is checked
        and repaired, and comes back online.  Disk time is charged
        proportional to the data scanned.
        """
        reports = {}
        for volume_id, volume in sorted(self.volumes.items()):
            was_online = volume.online
            volume.take_offline()
            yield from self.host.disk.access(
                max(4096, volume.used_bytes), sequential=True
            )
            yield from self.host.compute(0.002 * max(1, len(volume._inodes)))
            reports[volume_id] = volume.salvage()
            if was_online:
                volume.bring_online()
        # Crash amnesia: every callback promise and lock died with us.
        self.clients.reset()
        return reports

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def note_volume_access(self, volume: Volume, conn: Connection, nbytes: int) -> None:
        """Record one data access for the monitoring tools (§3.6)."""
        interface = self.host.network.interfaces.get(conn.client_name)
        segment = interface.segment.name if interface is not None else "?"
        self.volume_traffic.add(f"{volume.volume_id}|{segment}")
        self.usage_by_user.add(conn.username, max(1, nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ViceServer {self.host.name} mode={self.mode}"
            f" volumes={len(self.volumes)} validation={self.validation_mode}>"
        )
