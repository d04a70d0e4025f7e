"""The redundancy control plane: heartbeats, leases, failover, repair.

The paper stops at read-only replication: "Read-only subtrees... may be
replicated at many sites" (§3.2), while each read-write subtree lives at
exactly one custodian whose crash takes the subtree down until salvage.
This module extends the reproduction past that limit with the mechanism
the CMU line of work adopted next (AFS volume replication, then Coda): a
volume has several **members**, one of them the primary, and a small
controller detects dead servers and promotes survivors.  The members are
either N whole **copies** (``SystemConfig.replication``) or the k + m
positional fragment **slots** of a Reed–Solomon stripe
(``SystemConfig.erasure``, codec in :mod:`repro.vice.erasure`); the
controller and the per-server agent below serve both, reading which from
each location entry (``entry.erasure`` is ``(k, m)`` or ``None``).  N
copies are the k = 1 code, so one store-ack rule covers both.

Protocol summary
----------------

* Every redundant volume has one **primary** (the location database's
  custodian) and its other members, **secondaries**.  Whole-file traffic
  is served by the primary; secondaries refuse with ``NotCustodian``
  referrals (a stripe member also serves its own fragment, see
  :mod:`repro.vice.erasure`).
* A mutation applies at the primary, then propagates synchronously to
  the secondaries — the whole payload to a copy, fragment ``i`` to slot
  ``i``; the store succeeds once ``max(k, majority)`` members (primary
  included) hold it, never fewer than can reconstruct it.  Per-origin
  **version vectors** record the write history so a diverged copy can
  be detected and counted when it is later overwritten.
* Every server sends a **heartbeat** to the controller each
  ``HEARTBEAT_INTERVAL``; the reply renews a **write lease**.  A primary
  whose lease lapses (partitioned, or the controller died) fails writes
  with ``LeaseExpired`` — it can never accept a write after the moment
  the controller is entitled to promote someone else, because promotion
  waits ``MISSED_BEATS`` intervals and the lease is never longer.
* When the controller misses ``MISSED_BEATS`` consecutive heartbeats it
  declares the server dead, **promotes** the most up-to-date surviving
  member (largest version-vector sum), rewrites the location database,
  pushes it to the surviving servers, and **repairs**: copies shrink to
  the live members and grow back onto spare servers; a stripe keeps its
  dead slots listed (fragment indices are positional) until the primary
  has re-derived each onto a spare.
* A declared-dead server that heartbeats again is **rejoined**: its
  lease is withheld while the controller demotes its stale primaries,
  resynchronises what it still holds (a fresh copy, or its slot rebuilt
  in place), and drops copies it no longer owns.

Nothing here is constructed unless ``SystemConfig.replication`` or
``SystemConfig.erasure`` is set, so plain campuses remain byte-identical
to earlier builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, Iterator, List, Optional, Set

from repro.errors import FileNotFound, ReplicationError, ReproError, ViceError
from repro.hosts import Host
from repro.net.topology import Network
from repro.rpc import marshal
from repro.rpc.connection import Connection
from repro.rpc.node import RpcNode
from repro.sim.kernel import Simulator
from repro.vice.fileserver import SERVICE_PRINCIPAL
from repro.vice.location import LocationDatabase, LocationEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vice.server import ViceServer

__all__ = [
    "CONTROLLER_NAME",
    "DETECTION_TIME",
    "LEASE_DURATION",
    "ReplicationConfig",
    "ReplicationController",
    "ServerReplication",
]

# The controller host's canonical name; it lives on the backbone so every
# cluster can reach it without crossing a second bridge.
CONTROLLER_NAME = "replctl"

# The failure detector.  Constants, not settings: no campus ever needed
# other values, and the lease fence is only sound while the assert holds.
HEARTBEAT_INTERVAL = 5.0  # seconds between a server's heartbeats
MISSED_BEATS = 3  # consecutive silent intervals before a death is declared
# Worst-case seconds from death to the controller noticing.
DETECTION_TIME = MISSED_BEATS * HEARTBEAT_INTERVAL
# Write-lease lifetime granted per heartbeat ack.  Were it longer than the
# detection time, a partitioned primary could still be accepting writes
# when its successor is promoted.
LEASE_DURATION = 15.0
assert LEASE_DURATION <= DETECTION_TIME
# The controller is a small dedicated machine, server-class CPU.
CONTROLLER_CPU_SPEED = 2.0


@dataclass(frozen=True)
class ReplicationConfig:
    """Whole-copy read-write replication (``SystemConfig.replication``)."""

    # Copies per volume, primary included; capped at the server count.
    factor: int = 2

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("replication factor must be at least 1")


class ServerReplication:
    """The per-server redundancy agent: heartbeats, leases, propagation."""

    def __init__(self, server: "ViceServer"):
        self.server = server
        self.sim = server.sim
        # Optimistic initial lease: the first heartbeat lands well inside it.
        self.lease_until = self.sim.now + LEASE_DURATION
        self.heartbeats = 0
        self.propagations = 0
        self.propagation_failures = 0
        self.applied = 0
        self.divergent_discarded = 0
        # Written by the fragment handlers repro.vice.erasure adds beside
        # this agent on a coded campus; zero forever on a copied one.
        self.fragment_reads = 0
        self.rebuild_bytes = 0
        self.stripe_repairs = 0

        node = server.node
        node.register("ReplicateOp", self._replicate_op_handler)
        node.register("PromoteVolume", self._promote_handler)
        node.register("DemoteVolume", self._demote_handler)
        node.register("ReplicaStatus", self._status_handler)
        node.register("PlaceReplica", self._place_replica_handler)

        name = server.host.name
        server.sim.metrics.counter(f"replication.{name}", lambda: {
            "heartbeats": self.heartbeats,
            "propagations": self.propagations,
            "propagation_failures": self.propagation_failures,
            "applied": self.applied,
            "divergent_discarded": self.divergent_discarded,
        })
        self.sim.process(self._heartbeat_loop(), name=f"heartbeat:{name}")

    # ------------------------------------------------------------------
    # heartbeats and leases
    # ------------------------------------------------------------------

    def lease_valid(self) -> bool:
        """Whether this server may still act as a primary for writes."""
        return self.sim.now <= self.lease_until

    def _heartbeat_loop(self) -> Generator:
        while True:
            # A crashed host's processes keep running (only inbound
            # dispatch stops), so the loop itself must respect `up`.
            if self.server.host.up:
                try:
                    conn = yield from self.server.peer(CONTROLLER_NAME)
                    reply, _ = yield from self.server.node.call(
                        conn, "Heartbeat",
                        {"server": self.server.host.name,
                         "volumes": sorted(self.server.volumes)},
                    )
                    self.lease_until = reply["lease_until"]
                    self.heartbeats += 1
                except ReproError:
                    pass  # unreachable controller: the lease quietly lapses
            yield HEARTBEAT_INTERVAL

    # ------------------------------------------------------------------
    # write propagation (primary side)
    # ------------------------------------------------------------------

    def propagate(self, volume, record: Dict, payload: bytes = b"",
                  frags: Optional[List[bytes]] = None) -> Generator:
        """Ship one applied mutation to the other members; wait for quorum.

        Every member gets ``payload``, or — for a striped store — member
        ``i`` gets ``frags[i]``.  The store needs ``max(k, majority)``
        holders, where ``k`` is how many members it takes to read the
        volume back (1 for whole copies): never fewer than can
        reconstruct it, so an acked write survives every tolerated
        failure pattern.  This primary already holds the write, so one
        fewer remote ack suffices.  Shipments run in parallel; the store
        resumes at quorum, and stragglers finish in the background.
        Raises :class:`ReplicationError` when every shipment has failed
        short of quorum.
        """
        entry = self.server.location.entry_for_volume(volume.volume_id)
        me = self.server.host.name
        peers = [(i, n) for i, n in enumerate(entry.replicas) if n != me]
        if not peers:
            return
        k = volume.erasure_shape[0] if volume.erasure_shape else 1
        needed = max(k, len(entry.replicas) // 2 + 1) - 1  # remote acks required
        outcome = self.sim.event()
        state = {"acks": 0, "done": 0}

        def ship(index: int, name: str) -> Generator:
            try:
                conn = yield from self.server.peer(name)
                yield from self.server.node.call(
                    conn, "ReplicateOp",
                    {"volume_id": volume.volume_id, "record": record},
                    payload=payload if frags is None else frags[index],
                )
            except ReproError:
                pass
            else:
                state["acks"] += 1
                if state["acks"] >= needed and not outcome.triggered:
                    outcome.succeed(True)
            state["done"] += 1
            if state["done"] == len(peers) and not outcome.triggered:
                outcome.succeed(state["acks"] >= needed)

        for index, name in peers:
            self.sim.process(
                ship(index, name), name=f"replicate:{volume.volume_id}>{name}"
            )
        ok = yield outcome
        self.propagations += 1
        if not ok:
            self.propagation_failures += 1
            raise ReplicationError(
                f"volume {volume.volume_id!r}: {state['acks']} of {needed} required"
                f" {'secondary' if frags is None else 'fragment'} acks"
            )

    # ------------------------------------------------------------------
    # handlers (secondary / controller-driven side)
    # ------------------------------------------------------------------

    def _local_volume(self, volume_id: str):
        volume = self.server.volumes.get(volume_id)
        if volume is None:
            raise FileNotFound(f"no replica of volume {volume_id!r} here")
        return volume

    def _replicate_op_handler(self, conn: Connection, args, payload):
        """Apply one primary mutation to the local secondary copy."""
        self.server._require_service(conn)
        volume = self._local_volume(args["volume_id"])
        yield from self.server.host.compute(
            0.002 + len(payload) * self.server.costs.per_byte_cpu
        )
        if payload:
            yield from self.server.host.disk.access(len(payload), write=True)
        volume.apply_replica_op(args["record"], payload)
        self.applied += 1
        return {"ok": True}, b""

    def _promote_handler(self, conn: Connection, args, payload):
        """Become primary for a volume (controller-ordered failover)."""
        self.server._require_service(conn)
        yield from self.server.host.compute(0.005)
        volume = self._local_volume(args["volume_id"])
        volume.replica_role = "primary"
        return {"vv": dict(volume.version_vector)}, b""

    def _demote_handler(self, conn: Connection, args, payload):
        """Step down to secondary (a rejoined ex-primary)."""
        self.server._require_service(conn)
        yield from self.server.host.compute(0.005)
        volume = self._local_volume(args["volume_id"])
        volume.replica_role = "secondary"
        return {"vv": dict(volume.version_vector)}, b""

    def _status_handler(self, conn: Connection, args, payload):
        """Report the local copy's version vector (promotion election)."""
        self.server._require_service(conn)
        yield from self.server.host.compute(0.001)
        volume = self._local_volume(args["volume_id"])
        return {"vv": dict(volume.version_vector),
                "role": volume.replica_role}, b""

    def _place_replica_handler(self, conn: Connection, args, payload):
        """Ship this server's copy of a volume to a new replica site."""
        self.server._require_service(conn)
        volume = self._local_volume(args["volume_id"])
        snapshot_bytes = marshal.dumps(volume.snapshot())
        yield from self.server.host.disk.access(len(snapshot_bytes), sequential=True)
        yield from self.server.host.compute(
            len(snapshot_bytes) * self.server.costs.per_byte_cpu
        )
        target_conn = yield from self.server.peer(args["target"])
        yield from self.server.node.call(
            target_conn, "ReceiveVolume",
            {"role": args.get("role", "secondary")},
            payload=snapshot_bytes, expect_bytes=len(snapshot_bytes),
        )
        return {"ok": True}, b""


class ReplicationController:
    """The failure detector and membership authority for redundant volumes.

    One small dedicated host on the backbone.  It is deliberately simple
    (and assumed reliable — replicating the controller itself is out of
    scope): a heartbeat table, a monitor loop, and the failover/rejoin
    procedures.  All of its orders travel over the same authenticated
    RPC fabric as ordinary server-to-server traffic, under the internal
    ``vice`` principal, from a node configured by the campus ``config``
    like every other.  ``factor`` is how many whole copies a copied
    volume is grown back to (a striped volume's width is in its entry).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        service_key: bytes,
        config,
        factor: int = 1,
    ):
        self.sim = sim
        self.factor = factor
        self.service_key = service_key
        self.host = Host(sim, network, CONTROLLER_NAME, "backbone",
                         cpu_speed=CONTROLLER_CPU_SPEED)
        self.node = RpcNode(
            self.host,
            server_mode=config.server_structure,
            auth_key_lookup=self._lookup_key,
            **config.rpc_settings,
        )
        # The controller's own replica of the location database; the
        # campus (ITCSystem.sync_databases) keeps it current at setup
        # time, and the controller becomes its author during failovers.
        self.location = LocationDatabase()
        self.server_names: List[str] = []
        self.last_beat: Dict[str, float] = {}
        self.alive: Dict[str, bool] = {}
        self.volumes_at: Dict[str, List[str]] = {}
        self._rejoining: Set[str] = set()
        self._peer_connections: Dict[str, Connection] = {}
        # Set by ITCSystem when a fault plan installs availability
        # accounting; failover events land on its timeline.
        self.tracker = None

        self.heartbeats = 0
        self.deaths_declared = 0
        self.failovers = 0
        self.promotions = 0
        self.rereplications = 0
        self.rebuilds = 0
        self.rebuild_failures = 0
        self.rejoins = 0

        self.node.register("Heartbeat", self._heartbeat_handler)
        sim.metrics.counter("replication.controller", lambda: {
            "heartbeats": self.heartbeats,
            "deaths_declared": self.deaths_declared,
            "failovers": self.failovers,
            "promotions": self.promotions,
            "rereplications": self.rereplications,
            "rejoins": self.rejoins,
        })
        sim.process(self._monitor_loop(), name="replctl:monitor")

    # ------------------------------------------------------------------
    # fabric
    # ------------------------------------------------------------------

    def _lookup_key(self, username: str) -> bytes:
        if username == SERVICE_PRINCIPAL:
            return self.service_key
        raise ViceError("the replication controller only talks to Vice")

    def register_server(self, name: str) -> None:
        """Admit a server to the heartbeat table (campus construction)."""
        if name not in self.server_names:
            self.server_names.append(name)
        self.last_beat[name] = self.sim.now
        self.alive[name] = True

    def peer(self, server_name: str) -> Generator[None, None, Connection]:
        conn = self._peer_connections.get(server_name)
        if conn is not None and conn.established and not conn.closed:
            return conn
        conn = yield from self.node.connect(
            server_name, SERVICE_PRINCIPAL, self.service_key
        )
        self._peer_connections[server_name] = conn
        return conn

    def alive_servers(self) -> List[str]:
        """Registered servers currently believed alive, in campus order."""
        return [n for n in self.server_names if self.alive.get(n, False)]

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------

    def _heartbeat_handler(self, conn: Connection, args, payload):
        if conn.username != SERVICE_PRINCIPAL:
            raise ViceError("heartbeat from a non-Vice principal")
        yield from self.host.compute(0.001)
        name = args["server"]
        now = self.sim.now
        known = name in self.alive
        was_alive = self.alive.get(name, True)
        self.last_beat[name] = now
        self.volumes_at[name] = list(args.get("volumes", []))
        self.alive[name] = True
        if name not in self.server_names:
            self.server_names.append(name)
        self.heartbeats += 1
        if known and not was_alive and name not in self._rejoining:
            # Back from the dead: resynchronise before granting a lease.
            self._rejoining.add(name)
            self.sim.process(self._rejoin(name), name=f"replctl:rejoin:{name}")
        if name in self._rejoining:
            # An already-expired lease keeps the rejoiner read-only.
            lease_until = now
        else:
            lease_until = now + LEASE_DURATION
        return {"lease_until": lease_until}, b""

    def _monitor_loop(self) -> Generator:
        while True:
            yield HEARTBEAT_INTERVAL
            now = self.sim.now
            for name in self.server_names:
                if not self.alive.get(name, False):
                    continue
                if now - self.last_beat.get(name, 0.0) > DETECTION_TIME:
                    self.alive[name] = False
                    self.deaths_declared += 1
                    self.sim.process(
                        self._failover(name), name=f"replctl:failover:{name}"
                    )

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def _each_entry(self) -> Iterator[LocationEntry]:
        """Every entry of the controller's map, each read when its turn
        comes.  Entries are values: a procedure that yields between
        entries must see what it, or another controller process, wrote
        meanwhile, not the entry it held before the yield."""
        for held in self.location.entries():
            yield self.location.entry_for_volume(held.volume_id)

    def _failover(self, dead: str) -> Generator:
        """Promote successors for every volume the dead server led."""
        self.failovers += 1
        for entry in self._each_entry():
            if entry.custodian == dead and entry.replicas:
                yield from self._promote_volume(entry, dead)
        yield from self._repair_all()

    def _promote_volume(self, entry: LocationEntry, dead: str) -> Generator:
        """Elect the most up-to-date surviving member as new primary."""
        best: Optional[str] = None
        best_score = -1
        for name in entry.replicas:
            if name == dead or not self.alive.get(name, False):
                continue
            try:
                conn = yield from self.peer(name)
                reply, _ = yield from self.node.call(
                    conn, "ReplicaStatus", {"volume_id": entry.volume_id}
                )
            except ReproError:
                continue
            score = sum(reply["vv"].values())
            if score > best_score:
                best, best_score = name, score
        if best is None:
            return  # no live member: the volume is down until rejoin
        try:
            conn = yield from self.peer(best)
            yield from self.node.call(
                conn, "PromoteVolume", {"volume_id": entry.volume_id}
            )
        except ReproError:
            return
        self.location.reassign(entry.volume_id, best)
        if not entry.erasure:
            # Copies shrink to the live members at promotion: the write
            # quorum must never wait on a dead member's ack, and the lease
            # fence makes dropping it safe (it cannot serve a write again
            # without being rejoined).  Repair grows it back.  A stripe's
            # slots are positional: the dead one stays listed until rebuilt.
            survivors = [
                n for n in self.location.entry_for_volume(entry.volume_id).replicas
                if n != best and self.alive.get(n, False)
            ]
            self.location.set_replicas(entry.volume_id, [best] + survivors)
        self.promotions += 1
        yield from self._broadcast_location()
        if self.tracker is not None:
            self.tracker.record_failover(entry.volume_id, dead, best)

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------

    def _repair_all(self) -> Generator:
        """Restore every volume's redundancy after membership changed."""
        alive = self.alive_servers()
        want = min(self.factor, len(alive))
        changed = False
        for entry in self._each_entry():
            if not entry.replicas:
                continue
            if not self.alive.get(entry.custodian, False):
                continue  # still headless; a later rejoin recovers it
            if entry.erasure:
                changed |= yield from self._rehome_dead_slots(entry.volume_id)
            else:
                changed |= yield from self._regrow_copies(
                    entry.volume_id, alive, want)
        if changed:
            yield from self._broadcast_location()

    def _regrow_copies(self, volume_id: str, alive: List[str],
                       want: int) -> Generator:
        """Shrink a copied volume to its live members and grow it back to
        ``want`` onto spare live servers, shipped from the current primary;
        True if membership changed."""
        entry = self.location.entry_for_volume(volume_id)
        live = [entry.custodian] + [
            n for n in entry.replicas
            if n != entry.custodian and self.alive.get(n, False)
        ]
        spares = [n for n in alive if n not in live]
        for target in spares[: max(0, want - len(live))]:
            if (yield from self._place_copy(volume_id, target)):
                live.append(target)
                self.rereplications += 1
        if live == list(self.location.entry_for_volume(volume_id).replicas):
            return False
        self.location.set_replicas(volume_id, live)
        return True

    def _place_copy(self, volume_id: str, target: str) -> Generator:
        """Order the primary to ship ``target`` a whole copy; True on success."""
        try:
            conn = yield from self.peer(
                self.location.entry_for_volume(volume_id).custodian)
            yield from self.node.call(conn, "PlaceReplica", {
                "volume_id": volume_id,
                "target": target,
                "role": "secondary",
            })
        except ReproError:
            return False
        return True

    def _rehome_dead_slots(self, volume_id: str) -> Generator:
        """Re-home every dead slot of a stripe onto a spare; True if any moved."""
        changed = False
        members = self.location.entry_for_volume(volume_id).replicas
        for idx, name in enumerate(members):
            if self.alive.get(name, False):
                continue
            # Re-read after every rebuild: each one yields, and re-homes a slot.
            entry = self.location.entry_for_volume(volume_id)
            live = [n for n in entry.replicas if self.alive.get(n, False)]
            if len(live) < entry.erasure[0]:
                continue  # unreadable: cannot rebuild until a rejoin
            spares = [n for n in self.alive_servers()
                      if n not in entry.replicas]
            if not spares:
                continue  # no spare capacity; rejoin will heal in place
            if (yield from self._rebuild_slot(volume_id, idx, spares[0])):
                replicas = list(self.location.entry_for_volume(volume_id).replicas)
                replicas[idx] = spares[0]
                self.location.set_replicas(volume_id, replicas)
                changed = True
        return changed

    def _rebuild_slot(self, volume_id: str, index: int,
                      target: str) -> Generator:
        """Order the custodian to rebuild one slot; True on success."""
        entry = self.location.entry_for_volume(volume_id)
        sources = [
            n for n in entry.replicas
            if self.alive.get(n, False) and n != entry.custodian
            and n != target
        ][:entry.erasure[0]]
        try:
            conn = yield from self.peer(entry.custodian)
            yield from self.node.call(conn, "RebuildStripe", {
                "volume_id": volume_id,
                "index": index,
                "target": target,
                "sources": sources,
            })
        except ReproError:
            self.rebuild_failures += 1
            return False
        self.rebuilds += 1
        return True

    # ------------------------------------------------------------------
    # rejoin
    # ------------------------------------------------------------------

    def _rejoin(self, name: str) -> Generator:
        """Bring a returned server back into service, read-only first."""
        self.rejoins += 1
        try:
            conn = yield from self.peer(name)
            # Its databases are stale: push the current location map first
            # so it refers clients to the right primaries immediately.
            yield from self.node.call(
                conn, "SyncLocation", {"snapshot": self.location.snapshot()}
            )
            stale = set(self.volumes_at.get(name, []))
            for entry in self._each_entry():
                if not entry.replicas or name not in entry.replicas:
                    continue
                if entry.custodian == name:
                    continue  # it still leads this one (it never failed over)
                if entry.volume_id in stale:
                    # An ex-primary copy: step it down before resyncing.
                    try:
                        yield from self.node.call(
                            conn, "DemoteVolume", {"volume_id": entry.volume_id}
                        )
                    except ReproError:
                        pass
                    entry = self.location.entry_for_volume(entry.volume_id)
                # What it holds missed every write since it died: a fresh
                # copy, or its slot rebuilt in place from the live members.
                if entry.erasure:
                    yield from self._rebuild_slot(
                        entry.volume_id, entry.replicas.index(name), name)
                else:
                    yield from self._place_copy(entry.volume_id, name)
                stale.discard(entry.volume_id)
            # Copies of volumes it no longer belongs to (dropped at a
            # promotion, or its slot re-homed onto a spare).
            for volume_id in sorted(stale):
                try:
                    entry = self.location.entry_for_volume(volume_id)
                except ReproError:
                    continue
                if entry.replicas and name not in entry.replicas:
                    # Ship the authoritative version vector along so the
                    # dropper can count writes only its stale copy held.
                    vv: Dict[str, int] = {}
                    try:
                        pconn = yield from self.peer(entry.custodian)
                        reply, _ = yield from self.node.call(
                            pconn, "ReplicaStatus", {"volume_id": volume_id}
                        )
                        vv = reply["vv"]
                    except ReproError:
                        pass
                    try:
                        yield from self.node.call(
                            conn, "DropVolume",
                            {"volume_id": volume_id, "vv": vv},
                        )
                    except ReproError:
                        pass
        finally:
            self._rejoining.discard(name)
        # The returned server is spare capacity: heal what is still short.
        yield from self._repair_all()

    def _broadcast_location(self) -> Generator:
        """Push the controller's location database to every live server."""
        snapshot = self.location.snapshot()
        for name in self.alive_servers():
            try:
                conn = yield from self.peer(name)
                yield from self.node.call(
                    conn, "SyncLocation", {"snapshot": snapshot}
                )
            except ReproError:
                continue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicationController servers={len(self.server_names)}"
            f" alive={len(self.alive_servers())} failovers={self.failovers}>"
        )
