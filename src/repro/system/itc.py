"""The front door: an entire ITC campus in one object.

:class:`ITCSystem` assembles the network, cluster servers and workstations
from a :class:`~repro.system.config.SystemConfig`, and offers:

* **setup-time administration** — create users, groups and volumes before
  the simulated day begins (the equivalent of the operations staff priming
  the system); these calls mutate the master databases and synchronise all
  server replicas instantaneously;
* **runtime operations** — everything else goes through the real protocol:
  ``run_op`` drives any workstation/server generator to completion while
  the rest of the campus keeps running;
* **measurement** — the §5.2 numbers (busiest-server utilization, campus
  call mix, mean hit ratio) read directly off the components.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple, Union

from repro.crypto.keys import derive_user_key
from repro.errors import FileNotFound, InvalidArgument
from repro.faults.plan import FaultPlan
from repro.faults.scheduler import FaultScheduler
from repro.obs.availability import AvailabilityTracker
from repro.obs.live import OpsEventStream
from repro.sim.kernel import Simulator
from repro.sim.rand import WorkloadRandom
from repro.storage import pathutil
from repro.storage.unixfs import ProvisionedBody
from repro.system.config import SystemConfig
from repro.system.topology import (
    build_network,
    build_servers,
    build_workstations,
    server_name,
)
from repro.vice.protection import AccessList
from repro.vice.replication import ReplicationController, ServerReplication
from repro.vice.server import ViceServer
from repro.vice.volume import Volume
from repro.virtue.session import UserSession
from repro.virtue.workstation import Workstation

__all__ = ["ITCSystem"]

_ROOT_VOLUME = "root"


class ITCSystem:
    """A whole simulated campus: Vice, Virtue, and the wires between."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.config.validate()
        self.sim = Simulator()
        self.rng = WorkloadRandom(self.config.seed)
        self.service_key = derive_user_key("vice", "itc-internal-service-key")
        self.network = build_network(self.sim, self.config)
        self.servers: List[ViceServer] = build_servers(
            self.sim, self.network, self.config, self.service_key
        )
        self.workstations: List[Workstation] = build_workstations(
            self.sim, self.network, self.config
        )
        self._ws_by_name = {ws.name: ws for ws in self.workstations}
        self._server_by_name = {s.host.name: s for s in self.servers}
        self._volume_counter = 0
        self._batch_depth = 0
        self._sync_pending = False

        # Redundancy (repro.vice.replication): a controller host on the
        # backbone, a per-server agent, and Venus failover, whether the
        # volumes' members are whole copies or the fragment slots of a
        # stripe.  None of it exists unless configured, so plain campuses
        # stay byte-identical to pre-replication builds.
        self.replication_controller: Optional[ReplicationController] = None
        if self.config.replication is not None or self.config.erasure is not None:
            coded = self.config.erasure is not None
            self.replication_controller = ReplicationController(
                self.sim,
                self.network,
                self.service_key,
                self.config,
                factor=1 if coded else self.config.replication.factor,
            )
            for server in self.servers:
                server.replication = ServerReplication(server)
                self.replication_controller.register_server(server.host.name)
            if coded:
                # Imported only here, so plain and replicated campuses
                # never load the codec.
                from repro.vice.erasure import serve_fragments

                serve_fragments(self.replication_controller,
                                [server.replication for server in self.servers])
            all_names = [s.host.name for s in self.servers]
            for workstation in self.workstations:
                workstation.venus.enable_failover(all_names, striped=coded)

        # Master copies of the replicated databases; setup-time mutations
        # apply here and are pushed to every server replica.
        self._location_master = self.servers[0].location
        self._protection_master = self.servers[0].protection
        self._protection_master.add_user("vice", self.service_key)

        root = Volume(_ROOT_VOLUME, "vice root", clock=lambda: self.sim.now)
        self.servers[0].add_volume(root)
        self._mount(root, self.servers[0], "/")
        self.sync_databases()

        # Fault injection (repro.faults): nothing exists until a plan is
        # installed, so unfaulted campuses stay byte-identical to builds
        # predating the subsystem.
        self.availability: Optional[AvailabilityTracker] = None
        self.ops: Optional[OpsEventStream] = None
        self.fault_scheduler: Optional[FaultScheduler] = None
        if self.config.fault_plan is not None:
            self.install_faults(self.config.fault_plan)

    # ==================================================================
    # lookups
    # ==================================================================

    def workstation(self, name_or_index) -> Workstation:
        """A workstation by name ("ws0-1") or by flat index."""
        if isinstance(name_or_index, int):
            return self.workstations[name_or_index]
        return self._ws_by_name[name_or_index]

    def server(self, name_or_index) -> ViceServer:
        """A cluster server by name ("server0") or cluster index."""
        if isinstance(name_or_index, int):
            return self._server_by_name[server_name(name_or_index)]
        return self._server_by_name[name_or_index]

    def volume(self, volume_id: str) -> Volume:
        """A volume object wherever it currently lives (primary preferred)."""
        try:
            entry = self._location_master.entry_for_volume(volume_id)
        except FileNotFound:
            entry = None
        if entry is not None:
            custodian = self._server_by_name.get(entry.custodian)
            if custodian is not None and volume_id in custodian.volumes:
                return custodian.volumes[volume_id]
        for server in self.servers:
            if volume_id in server.volumes:
                return server.volumes[volume_id]
        raise InvalidArgument(f"volume {volume_id!r} not found on any server")

    # ==================================================================
    # setup-time administration
    # ==================================================================

    @contextmanager
    def batch_setup(self) -> Iterator["ITCSystem"]:
        """Defer replica synchronisation until the end of a setup block.

        Every individual ``add_user``/``add_group``/``create_volume`` call
        pushes full database snapshots to every server, which is quadratic
        when provisioning a whole campus.  Inside this block the pushes are
        coalesced: the masters are mutated immediately (so later setup calls
        observe earlier ones), and a single ``sync_databases`` runs on exit.
        Blocks nest; only the outermost exit synchronises.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._sync_pending:
                self._sync_pending = False
                self.sync_databases()

    def sync_databases(self) -> None:
        """Bring every replica to the master location/protection version.

        Each replica adopts the master's current state by reference (see
        ``LocationDatabase.load_snapshot``); the master copies it before
        its next write, so a later setup mutation stays invisible to the
        replicas until the next sync.
        """
        if self._batch_depth > 0:
            self._sync_pending = True
            return
        location = self._location_master.snapshot()
        protection = self._protection_master.snapshot()
        for server in self.servers:
            if server.location is not self._location_master:
                server.location.load_snapshot(location)
            if server.protection is not self._protection_master:
                server.protection.load_snapshot(protection)
        if self.replication_controller is not None:
            self.replication_controller.location.load_snapshot(location)

    def add_user(self, username: str, password: str) -> bytes:
        """Register a user campus-wide; returns their derived key."""
        key = derive_user_key(username, password)
        self._protection_master.add_user(username, key)
        self.sync_databases()
        return key

    def add_group(self, group: str, members: Optional[List[str]] = None) -> None:
        """Create a group and optionally populate it."""
        self._protection_master.add_group(group)
        for member in members or []:
            self._protection_master.add_member(group, member)
        self.sync_databases()

    def add_member(self, group: str, member: str) -> None:
        """Add a user or group to a group."""
        self._protection_master.add_member(group, member)
        self.sync_databases()

    def create_volume(
        self,
        mount_path: str,
        custodian=0,
        volume_id: Optional[str] = None,
        owner: str = "system:administrators",
        quota_bytes: Optional[int] = None,
    ) -> Volume:
        """Create and mount a volume; stub directories appear in the parent.

        The prototype represented mounts as "stub directories in the Vice
        file storage structure"; we keep that so directory listings show
        mounted subtrees.
        """
        server = self.server(custodian) if not isinstance(custodian, ViceServer) else custodian
        mount_path = pathutil.normalize(mount_path)
        if volume_id is None:
            self._volume_counter += 1
            volume_id = f"vol{self._volume_counter}"
        volume = Volume(
            volume_id,
            mount_path.strip("/").replace("/", ".") or "root",
            clock=lambda: self.sim.now,
            quota_bytes=quota_bytes,
            owner=owner,
        )
        if owner != "system:administrators":
            acl = volume.acls[volume.fs.root.number]
            acl.grant(owner, "rwidlak")
        server.add_volume(volume)
        self._make_stub_dirs(mount_path)
        self._mount(volume, server, mount_path)
        self.sync_databases()
        return volume

    def _mount(self, volume: Volume, server: ViceServer, mount_path: str) -> None:
        """Enter the volume in the master location database with its
        members, then place the others: whole copies on the next servers
        around the ring, or stripe slots, slot i of the entry's replicas
        holding fragment i of every file.

        Every member starts as a byte-exact snapshot of the (still empty)
        primary, so identical setup-time mutations — :meth:`populate` et
        al. apply to every copy in the same order — assign identical vnode
        numbers, and Venus fid caches survive a failover unchanged.
        """
        names = [s.host.name for s in self.servers]
        econf = self.config.erasure
        rconf = self.config.replication
        members: List[str] = []
        if econf is not None:
            from repro.vice.erasure import plan_stripe

            members = plan_stripe(
                self._location_master, names, server.host.name, econf.width
            )
            volume.erasure_shape = (econf.data, econf.parity)
            volume.erasure_index = 0
        elif rconf is not None and rconf.factor >= 2 and len(names) >= 2:
            start = names.index(server.host.name)
            count = min(rconf.factor, len(names))
            members = [names[(start + i) % len(names)] for i in range(count)]
        self._location_master.add(mount_path, volume.volume_id, server.host.name,
                                  replicas=members, erasure=volume.erasure_shape)
        if not members:
            return
        volume.replica_role = "primary"
        for index, name in enumerate(members[1:], start=1):
            copy = Volume.from_snapshot(volume.snapshot(), clock=lambda: self.sim.now)
            copy.replica_role = "secondary"
            if econf is not None:
                copy.erasure_index = index
            # from_snapshot advances the inode allocator one past the
            # highest shipped vnode; the just-created primary's allocator
            # still sits at the start.  Realign so the identical-order
            # setup mutations below (populate, stub dirs) assign identical
            # vnode numbers on every copy.
            copy.fs._inode_numbers = itertools.count(2)
            self._server_by_name[name].add_volume(copy)

    def _all_copies(self, volume: Volume) -> List[Volume]:
        """Every server's copy of a volume, the given one first."""
        copies = [volume]
        for server in self.servers:
            copy = server.volumes.get(volume.volume_id)
            if copy is not None and copy is not volume:
                copies.append(copy)
        return copies

    def _make_stub_dirs(self, mount_path: str) -> None:
        if mount_path == "/":
            return
        entry, _rest = self._location_master.resolve(pathutil.dirname(mount_path))
        parent_volume = self.volume(entry.volume_id)
        relative = (
            mount_path[len(entry.mount_path):] if entry.mount_path != "/" else mount_path
        )
        for copy in self._all_copies(parent_volume):
            copy.makedirs(relative)

    def create_user_volume(self, username: str, cluster: int = 0, quota_bytes=None) -> Volume:
        """A user's home subtree at ``/usr/<name>``, custodian in ``cluster``.

        "A faculty member's files, for instance, would be assigned to the
        custodian which is in the same cluster as the workstation in his
        office."
        """
        return self.create_volume(
            f"/usr/{username}",
            custodian=cluster,
            volume_id=f"u-{username}",
            owner=username,
            quota_bytes=quota_bytes,
        )

    def populate(
        self,
        volume: Volume,
        tree: Dict[str, Union[bytes, ProvisionedBody]],
        owner: str = "system:administrators",
    ) -> None:
        """Pre-load files into a volume (setup-time content, no protocol).

        Loaded in sorted order; each copy resolves (or creates) a parent
        directory once per run of files that share it.
        """
        copies = self._all_copies(volume)
        shape = copies[0].erasure_shape
        if shape is not None:
            from repro.vice.erasure import encode
        parent_path = None
        for path, body in sorted(tree.items()):
            path = pathutil.normalize(path)
            dirname, name = pathutil.split(path)
            if dirname != parent_path:
                parent_path = dirname
                parents = [copy.makedirs(dirname, owner=owner) for copy in copies]
            held = body
            if shape is not None:
                # Parity needs the bytes: a coded volume builds every body
                # here, and its inodes hold none.
                held, frags = b"", encode(bytes(body), *shape)
            for copy, parent in zip(copies, parents):
                if name in parent.entries:
                    node = copy.write(path, held, owner=owner)
                else:
                    node = copy.create_under(parent, name, held, owner=owner)
                if shape is not None:
                    copy.set_fragment(node.number, frags[copy.erasure_index], len(body))

    def set_directory_acl(self, volume: Volume, path: str, acl: AccessList) -> None:
        """Setup-time ACL assignment on a directory inside a volume."""
        for copy in self._all_copies(volume):
            inode = copy.resolve(path)
            copy.acls[inode.number] = acl

    # ==================================================================
    # fault injection
    # ==================================================================

    def install_faults(self, plan: FaultPlan) -> FaultScheduler:
        """Install a fault plan: the ops log (``ops``), availability
        tracking that records into it, and the scheduler.

        Idempotence is deliberate — a campus runs at most one plan, so a
        second installation raises.  Installing even an empty plan turns
        availability accounting on; it never changes virtual time.
        """
        if self.fault_scheduler is not None:
            raise InvalidArgument("a fault plan is already installed")
        self.ops = OpsEventStream(self.sim)
        self.availability = AvailabilityTracker(self.sim, self.ops)
        if self.replication_controller is not None:
            self.replication_controller.tracker = self.availability
        self.fault_scheduler = FaultScheduler(self, plan)
        self.fault_scheduler.install()
        return self.fault_scheduler

    def ensure_fault_controls(self) -> FaultScheduler:
        """The fault scheduler, installing an empty plan if none exists.

        The ops console needs somewhere to enqueue live injections even on
        a campus built without a plan; an empty plan turns on the ops log,
        availability accounting and the scheduler without scheduling
        anything.
        """
        if self.fault_scheduler is None:
            self.install_faults(FaultPlan(name="live-controls"))
        return self.fault_scheduler

    # ==================================================================
    # runtime driving
    # ==================================================================

    def login(self, ws, username: str, password: str) -> UserSession:
        """A session for ``username`` at a workstation (name, index or object)."""
        workstation = ws if isinstance(ws, Workstation) else self.workstation(ws)
        return UserSession(workstation, username, password)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the whole campus."""
        self.sim.run(until=until)

    def run_op(self, generator: Generator, limit: float = 1e9) -> Any:
        """Drive one operation to completion; returns its value."""
        return self.sim.run_until_complete(self.sim.process(generator), limit=limit)

    # ==================================================================
    # measurement (the §5.2 numbers)
    # ==================================================================

    @property
    def metrics(self):
        """The campus-wide metrics registry (see :mod:`repro.obs.registry`)."""
        return self.sim.metrics

    @property
    def tracer(self):
        """The campus tracer (the null recorder unless tracing is enabled)."""
        return self.sim.tracer

    def reset_counters(self) -> None:
        """Zero the call-mix and cache counters (end of a warm-up phase).

        Utilization integrals are windowed by ``start=`` instead, so they
        need no reset.
        """
        for server in self.servers:
            server.call_mix = type(server.call_mix)(server.call_mix.name)
            server.node.calls_received = type(server.node.calls_received)(
                server.node.calls_received.name
            )
        for workstation in self.workstations:
            cache = workstation.venus.cache
            cache.hits = 0
            cache.misses = 0
            cache.evictions = 0
            workstation.venus.validations = 0
            workstation.venus.fetches = 0
            workstation.venus.stores = 0

    def busiest_server(self, start: float = 0.0, end=None) -> Tuple[ViceServer, float]:
        """The server with the highest mean CPU utilization over the window."""
        best = max(self.servers, key=lambda s: s.host.cpu_utilization(start, end))
        return best, best.host.cpu_utilization(start, end)

    def campus_call_mix(self) -> Dict[str, float]:
        """Call-category shares summed over all servers (EXP-1)."""
        totals: Dict[str, int] = {}
        for server in self.servers:
            for label, count in server.call_mix.as_dict().items():
                totals[label] = totals.get(label, 0) + count
        grand = sum(totals.values())
        return {k: v / grand for k, v in sorted(totals.items())} if grand else {}

    def mean_hit_ratio(self) -> float:
        """Open-weighted Venus cache hit ratio across all workstations."""
        hits = sum(ws.venus.cache.hits for ws in self.workstations)
        misses = sum(ws.venus.cache.misses for ws in self.workstations)
        total = hits + misses
        return hits / total if total else 0.0

    def cross_cluster_bytes(self) -> int:
        """Wire bytes that crossed the backbone (locality measure)."""
        return self.network.total_bytes_on("backbone")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ITCSystem {self.config.mode} clusters={self.config.clusters}"
            f" workstations={len(self.workstations)}>"
        )
