"""The Vice file-server RPC protocol: every call a cluster server answers.

The paper's two implementations differ in one decision — who walks the
pathname:

* **Pathname-based** (prototype, §3.5.2): ``Fetch``, ``Store``,
  ``GetStatus``, ... carry a full Vice ``path`` and the *server* walks it,
  paying a per-component CPU charge and directory reads — the cost that
  made "offloading of pathname traversal from servers to clients" the
  headline change of the redesign.
* **Fid-based** (revised, §5.3): ``FetchByFid``, ``CreateByFid``,
  ``GetStatusByFid``, ... carry fixed-length file identifiers; Venus walks
  directories itself and the server does O(1) vnode-index lookups.

That decision is written once, as the naming step in front of every
operation: :meth:`FileService._locate` (an object) and
:meth:`FileService._locate_entry` (a parent directory plus a name) are
the only code that reads which family a call belongs to, and they charge
that family's addressing cost (Venus picks the family in the mirror
step, ``Venus._name_object`` / ``_name_entry``).  Everything after the
step — ACL checks, callback breaks, whole-file data movement, replication
records — is one handler registered under both wire names.

Three pairs are deliberately *not* one handler, because they differ after
the naming step too:

* ``ValidateCache`` / ``ValidateByFid`` — the fid call answers for a
  read-only clone without a rights check or a status read, and finds the
  volume before the vnode; the pathname call reads the status disk even
  when the file is missing.
* ``Rename`` / ``RenameByFid`` — one CPU burst covers *two* names, so the
  naming step cannot be charged once per name; they share
  ``_rename_core``.
* ``SetLock`` / ``ReleaseLock`` — pathname only: Venus has no fid
  spelling of a lock.

(``ListDir`` and ``FetchDir`` are not a pair either: the revised call is a
cacheable fetch that registers a promise, the prototype's a status read.)

Call-mix accounting feeds EXP-1: every handler classifies itself as one of
``validate`` / ``status`` / ``fetch`` / ``store`` / ``other``, the paper's
histogram categories.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.errors import (
    CrossDeviceLink,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    QuotaExceeded,
    ReproError,
)
from repro.obs.trace import _NULL_SPAN
from repro.rpc.connection import Connection
from repro.storage import pathutil
from repro.storage.unixfs import FileType, Inode
from repro.vice.ids import make_fid, split_fid
from repro.vice.protection import AccessList, Rights
from repro.vice.replicated import SERVICE_PRINCIPAL
from repro.vice.volume import Volume

__all__ = ["FileService", "SERVICE_PRINCIPAL"]


class FileService:
    """Registers and implements the file protocol on one ViceServer."""

    def __init__(self, server):
        self.server = server
        self.costs = server.costs
        self.host = server.host
        self.sim = server.sim

    def register_all(self) -> None:
        """Attach every procedure to the server's RPC node."""
        node = self.server.node
        for name, handler in [
            ("GetCustodian", self.get_custodian),
            # one handler under both wire names: only the naming step differs
            ("Fetch", self.fetch), ("FetchByFid", self.fetch),
            ("Store", self.store), ("CreateByFid", self.store),
            ("GetStatus", self.get_status), ("GetStatusByFid", self.get_status),
            ("MakeDir", self.make_dir), ("MakeDirByFid", self.make_dir),
            ("Remove", self.remove), ("RemoveByFid", self.remove),
            ("RemoveDir", self.remove_dir), ("RemoveDirByFid", self.remove_dir),
            ("MakeSymlink", self.make_symlink), ("SymlinkByFid", self.make_symlink),
            ("GetACL", self.get_acl), ("GetACLByFid", self.get_acl),
            ("SetACL", self.set_acl), ("SetACLByFid", self.set_acl),
            # different after the naming step too (see the module docstring)
            ("ValidateCache", self.validate_cache),
            ("ValidateByFid", self.validate_by_fid),
            ("Rename", self.rename),
            ("RenameByFid", self.rename_by_fid),
            # one family only
            ("ListDir", self.list_dir),
            ("SetLock", self.set_lock),
            ("ReleaseLock", self.release_lock),
            ("LookupVnode", self.lookup_vnode),
            ("StoreByFid", self.store_by_fid),
            ("FetchDir", self.fetch_dir),
        ]:
            node.register(name, handler)

    # ==================================================================
    # the naming step: which object does a call mean?
    # ==================================================================

    def _locate(
        self, args: Dict, want_write: bool, *cpu: float
    ) -> Generator[Any, Any, Tuple[Volume, Inode]]:
        """Name a call's object: ``args["path"]`` walked here, or ``args["fid"]``.

        Charges the family's addressing cost and the handler's own ``cpu``
        terms in one burst: a second ``compute`` would queue twice on a
        busy prototype server.
        """
        path = args.get("path")
        charge = self.costs.fid_lookup_cpu if path is None else self._traversal_charge(path)
        for term in cpu:  # left to right: virtual time is pinned to the last bit
            charge += term
        yield from self.host.compute(charge)
        if path is None:
            return self._inode_from_fid(args["fid"], want_write)
        yield from self._traversal_io(path)
        volume, rest = self._locate_path(path, want_write)
        return volume, volume.resolve(rest)

    def _locate_entry(self, args: Dict) -> Generator[Any, Any, Tuple[Volume, Inode, str]]:
        """Name a directory entry to create or remove: ``(volume, parent, name)``.

        The pathname family sends the entry's full path (all of it is
        walked and charged); the fid family the parent directory's fid and
        the last component.
        """
        path = args.get("path")
        if path is None:
            yield from self.host.compute(self.costs.fid_lookup_cpu)
            volume, parent = self._inode_from_fid(args["parent"], want_write=True)
            return volume, parent, args["name"]
        yield from self.host.compute(self._traversal_charge(path))
        yield from self._traversal_io(path)
        volume, rest = self._locate_path(path, want_write=True)
        return volume, volume.resolve(pathutil.dirname(rest)), pathutil.basename(rest)

    def _locate_path(self, vice_path: str, want_write: bool) -> Tuple[Volume, str]:
        """Location-database resolution to (volume-at-this-server, relpath).

        Raises :class:`NotCustodian` with a referral when another server
        stores the file.
        """
        entry, rest = self.server.location.resolve(vice_path)
        volume = self.server.volume_for_entry(entry, want_write)
        return volume, rest

    def _inode_from_fid(self, fid: str, want_write: bool) -> Tuple[Volume, Inode]:
        volume_id, vnode = split_fid(fid)
        volume = self.server.volume_by_id(volume_id, want_write)
        return volume, volume.inode_by_vnode(vnode)

    def _traversal_charge(self, vice_path: str) -> float:
        """CPU per path component walked (zero on the revised server)."""
        return len(pathutil.components(vice_path)) * self.costs.traverse_component_cpu

    def _traversal_io(self, vice_path: str) -> Generator:
        """Pathname interpretation reads directories from disk (prototype).

        namei walks the storage hierarchy; with the era's small buffer
        cache, most component lookups cost a small random disk read.
        """
        reads = round(
            len(pathutil.components(vice_path))
            * self.costs.traversal_disk_reads_per_component
        )
        if reads > 0:
            yield from self.host.disk.access(
                512 * reads, sequential=False, page_size=512
            )

    # ==================================================================
    # shared internals
    # ==================================================================

    def _status_disk(self) -> Generator:
        """Prototype status calls read the `.admin` shadow file from disk."""
        if self.costs.admin_file_bytes:
            yield from self.host.disk.access(self.costs.admin_file_bytes)

    def _check(
        self, volume: Volume, inode: Inode, username: str, right: str
    ) -> None:
        """Enforce the governing ACL (and per-file mode bits when revised)."""
        if username == SERVICE_PRINCIPAL:
            return  # intra-Vice traffic is trusted (inside the security boundary)
        acl = volume.acl_for(inode)
        rights = self.server.protection.rights_on(acl, username)
        if right not in rights:
            raise PermissionDenied(
                f"user {username} lacks {right!r} on {make_fid(volume.volume_id, inode.number)}"
            )
        if self.server.mode != "prototype" and inode.file_type == FileType.FILE:
            if username != inode.owner:
                if right == Rights.READ and not inode.mode_bits & 0o004:
                    raise PermissionDenied(f"mode bits deny read to {username}")
                if right == Rights.WRITE and not inode.mode_bits & 0o002:
                    raise PermissionDenied(f"mode bits deny write to {username}")

    def _status_of(self, volume: Volume, inode: Inode, username: str,
                   fid: Optional[str] = None) -> Dict[str, Any]:
        """The status record every status-bearing call returns; ``fid`` is
        the inode's fid if the call has already spelled it (one string
        serves the guard, the promise and the record)."""
        try:
            rights = Rights.spell(
                self.server.protection.rights_on(volume.acl_for(inode), username))
        except ReproError:
            rights = ""
        return {
            "fid": fid or make_fid(volume.volume_id, inode.number),
            "type": inode.file_type,
            "size": volume.size_of(inode),
            "version": inode.version,
            "mtime": inode.mtime,
            "owner": inode.owner,
            "mode": inode.mode_bits,
            "rights": rights,
            "read_only": volume.read_only,
        }

    def _break_callbacks(self, fid: str, exclude: Optional[Connection]) -> Generator:
        """Notify every callback holder before a mutation is acknowledged.

        Only the *notified* promises are dropped: the excluded mutator keeps
        its own promise (its copy is the fresh one), so the next mutation by
        anyone else still knows to call it back.
        """
        holders = self.server.clients.holders(fid, exclude=exclude)
        if not holders:
            return
        # The breaks run in spawned processes, outside this span stack: hand
        # them the current span as an explicit parent so the trace tree keeps
        # the mutation -> break causality.
        parent = self.sim.tracer.current()
        breaks = [
            self.sim.process(self._break_one(conn, fid, parent), name=f"break:{fid}")
            for conn in holders
        ]
        yield self.sim.all_of(breaks)
        self.server.clients.forget(fid, holders)

    def _break_one(self, conn: Connection, fid: str, parent=None) -> Generator:
        with self.sim.tracer.span(
            "vice.callback_break", component="vice", host=self.host.name,
            parent=parent, fid=fid,
        ):
            try:
                yield from self.server.node.call(conn, "BreakCallback", {"fid": fid})
            except ReproError:
                pass  # holder unreachable: its promise simply lapses

    def _maybe_promise(self, volume: Volume, inode: Inode, conn: Connection,
                       fid: Optional[str] = None) -> None:
        """Register a callback promise when running invalidate-on-modify."""
        if self.server.validation_mode != "callback":
            return
        if volume.read_only:
            return  # "cached copies can never be invalid"
        self.server.clients.promise(fid or make_fid(volume.volume_id, inode.number), conn)

    def _count(self, category: str) -> None:
        self.server.call_mix.add(category)

    # ==================================================================
    # location
    # ==================================================================

    def get_custodian(self, conn: Connection, args: Dict, payload: bytes):
        """Resolve a Vice path to its custodian assignment (location query)."""
        yield from self.host.compute(self.costs.fid_lookup_cpu)
        entry, _rest = self.server.location.resolve(args["path"])
        self._count("other")
        return entry.as_dict(), b""

    # ==================================================================
    # fetch / store
    # ==================================================================

    def fetch(self, conn: Connection, args: Dict, payload: bytes):
        """Whole-file fetch (``Fetch`` / ``FetchByFid``)."""
        volume, inode = yield from self._locate(args, want_write=False)
        if inode.file_type == FileType.DIRECTORY:
            raise IsADirectory(volume.path_of(inode.number))
        self._check(volume, inode, conn.username, Rights.READ)
        if volume.erasure_shape is not None and inode.file_type == FileType.FILE:
            # The inode of a striped file holds no body, only fragments.
            raise InvalidArgument("striped file: read it with FetchFragment")
        fid = make_fid(volume.volume_id, inode.number)
        tracer = self.sim.tracer
        with (tracer.span("vice.fetch", component="vice",
                          host=self.host.name, fid=fid)
              if tracer.enabled else _NULL_SPAN) as span:
            guard = yield from self.server.vnode_guard(fid)
            try:
                # An unbuilt body travels as itself: whoever opens it builds it.
                data = inode.body if inode.file_type == FileType.FILE else inode.target.encode()
                span.add(bytes=len(data))
                yield from self.host.compute(
                    self.costs.fetch_base_cpu
                    + self.costs.acl_check_cpu
                    + len(data) * self.costs.per_byte_cpu
                )
                yield from self.host.disk.access(len(data), sequential=True)
                yield from self._status_disk()
                self._maybe_promise(volume, inode, conn, fid)
                status = self._status_of(volume, inode, conn.username, fid)
            finally:
                self.server.vnode_release(fid, guard)
        self.server.note_volume_access(volume, conn, len(data))
        self._count("fetch")
        return status, data

    def store(self, conn: Connection, args: Dict, payload: bytes):
        """Whole-file store into a directory entry, creating the file if
        absent (``Store`` / ``CreateByFid``)."""
        volume, parent, name = yield from self._locate_entry(args)
        inode = volume.fs.child(parent, name)
        return (yield from self._store_core(volume, parent, name, inode, payload, conn))

    def store_by_fid(self, conn: Connection, args: Dict, payload: bytes):
        """Whole-file store over an existing file named by its own fid."""
        volume, inode = yield from self._locate(args, want_write=True)
        parent = volume.parent_of(inode.number)
        name = volume.path_of(inode.number).rsplit("/", 1)[-1]
        return (yield from self._store_core(volume, parent, name, inode, payload, conn))

    def _store_core(
        self, volume: Volume, parent: Inode, name: str, inode: Optional[Inode],
        data: bytes, conn: Connection,
    ):
        """Whole-file store; ``inode`` is None when creating a new file."""
        if inode is not None and inode.file_type != FileType.FILE:
            raise IsADirectory(name)
        right = Rights.WRITE if inode is not None else Rights.INSERT
        check_target = inode if inode is not None else parent
        self._check(volume, check_target, conn.username, right)
        created = inode is None
        guard_fid = make_fid(
            volume.volume_id, parent.number if created else inode.number
        )
        tracer = self.sim.tracer
        with (tracer.span("vice.store", component="vice", host=self.host.name,
                          bytes=len(data), created=created)
              if tracer.enabled else _NULL_SPAN):
            guard = yield from self.server.vnode_guard(guard_fid)
            try:
                coded = volume.erasure_shape is not None
                frags = None
                yield from self.host.compute(
                    self.costs.store_base_cpu
                    + self.costs.acl_check_cpu
                    + len(data) * self.costs.per_byte_cpu
                )
                if coded:
                    from repro.vice.erasure import encode
                    old_len = (0 if created else
                               volume.fragment_true_sizes.get(inode.number, 0))
                    if (volume.quota_bytes is not None
                            and volume.logical_bytes + len(data) - old_len
                            > volume.quota_bytes):
                        raise QuotaExceeded(
                            f"volume {volume.volume_id}: striped store exceeds"
                            f" quota {volume.quota_bytes}"
                        )
                    # Encoding the stripe is one extra per-byte CPU pass;
                    # only this member's fragment hits the local disk.
                    yield from self.host.compute(
                        len(data) * self.costs.per_byte_cpu
                    )
                    frags = encode(data, *volume.erasure_shape)
                    yield from self.host.disk.access(
                        len(frags[0]), write=True, sequential=True
                    )
                else:
                    yield from self.host.disk.access(len(data), write=True, sequential=True)
                yield from self._status_disk()
                stored = b"" if coded else data
                if created:
                    parent_path = volume.path_of(parent.number)
                    inode = volume.create_file(
                        pathutil.join(parent_path, name), stored, owner=conn.username
                    )
                else:
                    inode = volume.write_vnode(inode.number, stored)
                if coded:
                    volume.set_fragment(
                        inode.number, frags[volume.erasure_index], len(data)
                    )
                fid = make_fid(volume.volume_id, inode.number) if created else guard_fid
                yield from self._break_callbacks(fid, exclude=conn)
                if created:
                    # The directory changed too: holders of its cached copy hear.
                    parent_fid = make_fid(volume.volume_id, parent.number)
                    yield from self._break_callbacks(parent_fid, exclude=conn)
                self._maybe_promise(volume, inode, conn, fid)
                status = self._status_of(volume, inode, conn.username, fid)
            finally:
                self.server.vnode_release(guard_fid, guard)
        record = {
            "op": "write",
            "path": volume.path_of(inode.number),
            "vnode": inode.number,
            "version": inode.version,
            "owner": conn.username,
        }
        if coded:
            record["frag"] = {"len": len(data)}
        yield from self.server.replicate_mutation(volume, record, data, frags)
        self.server.note_volume_access(volume, conn, len(data))
        self._count("store")
        return status, b""

    # ==================================================================
    # status, validation and directories
    # ==================================================================

    def get_status(self, conn: Connection, args: Dict, payload: bytes):
        """Status (``GetStatus``, the paper's 27 % call / ``GetStatusByFid``)."""
        volume, inode = yield from self._locate(
            args, False, self.costs.status_cpu, self.costs.acl_check_cpu
        )
        self._check(volume, inode, conn.username, Rights.LOOKUP)
        yield from self._status_disk()
        self._count("status")
        return self._status_of(volume, inode, conn.username), b""

    def validate_cache(self, conn: Connection, args: Dict, payload: bytes):
        """Compare a cached version with the custodian's (the 65 % call)."""
        path = args["path"]
        yield from self.host.compute(
            self._traversal_charge(path) + self.costs.validate_cpu
        )
        yield from self._traversal_io(path)
        volume, rest = self._locate_path(path, want_write=False)
        try:
            inode = volume.resolve(rest)
        except FileNotFound:
            self._count("validate")
            yield from self._status_disk()
            return {"valid": False, "exists": False}, b""
        self._check(volume, inode, conn.username, Rights.READ)
        yield from self._status_disk()
        self._maybe_promise(volume, inode, conn)
        self._count("validate")
        valid = inode.version == args.get("version")
        return {"valid": valid, "exists": True, "version": inode.version}, b""

    def validate_by_fid(self, conn: Connection, args: Dict, payload: bytes):
        """Version check by fid; read-only volumes are always valid."""
        yield from self.host.compute(self.costs.fid_lookup_cpu + self.costs.validate_cpu)
        volume_id, vnode = split_fid(args["fid"])
        volume = self.server.volume_by_id(volume_id, want_write=False)
        if volume.read_only:
            # Venus normally never validates replica copies; when it does
            # (an explicit invalidation, or a new release cut over under
            # the same volume id), compare versions honestly.
            self._count("validate")
            try:
                inode = volume.inode_by_vnode(vnode)
            except FileNotFound:
                return {"valid": False, "exists": False}, b""
            valid = inode.version == args.get("version")
            return {"valid": valid, "exists": True, "version": inode.version}, b""
        try:
            inode = volume.inode_by_vnode(vnode)
        except FileNotFound:
            self._count("validate")
            return {"valid": False, "exists": False}, b""
        self._check(volume, inode, conn.username, Rights.READ)
        yield from self._status_disk()
        self._maybe_promise(volume, inode, conn)
        self._count("validate")
        valid = inode.version == args.get("version")
        return {"valid": valid, "exists": True, "version": inode.version}, b""

    def list_dir(self, conn: Connection, args: Dict, payload: bytes):
        """Directory entries by pathname."""
        volume, inode = yield from self._locate(
            args, False, self.costs.status_cpu, self.costs.acl_check_cpu
        )
        self._check(volume, inode, conn.username, Rights.LOOKUP)
        yield from self._status_disk()
        self._count("status")
        return {
            "status": self._status_of(volume, inode, conn.username),
            "entries": volume.listing(inode),
        }, b""

    def fetch_dir(self, conn: Connection, args: Dict, payload: bytes):
        """Fetch a directory's entries (Venus caches these to walk paths)."""
        volume, inode = yield from self._locate(
            args, False, self.costs.status_cpu, self.costs.acl_check_cpu
        )
        self._check(volume, inode, conn.username, Rights.LOOKUP)
        entries = volume.listing(inode)
        yield from self.host.disk.access(64 * max(1, len(entries)))
        fid = make_fid(volume.volume_id, inode.number)
        self._maybe_promise(volume, inode, conn, fid)
        self._count("fetch")
        return {
            "status": self._status_of(volume, inode, conn.username, fid),
            "entries": entries,
        }, b""

    def lookup_vnode(self, conn: Connection, args: Dict, payload: bytes):
        """One-component directory lookup — the unit of client-side traversal."""
        volume, inode = yield from self._locate(args, False, self.costs.acl_check_cpu)
        self._check(volume, inode, conn.username, Rights.LOOKUP)
        child = volume.fs.child(inode, args["name"])
        if child is None:
            raise FileNotFound(args["name"])
        self._count("status")
        return {
            "fid": make_fid(volume.volume_id, child.number),
            "type": child.file_type,
            "target": child.target,
        }, b""

    # ==================================================================
    # mutation of the name space
    # ==================================================================

    def make_dir(self, conn: Connection, args: Dict, payload: bytes):
        """Create a directory (``MakeDir`` / ``MakeDirByFid``)."""
        volume, parent, name = yield from self._locate_entry(args)
        self._check(volume, parent, conn.username, Rights.INSERT)
        yield from self.host.compute(self.costs.dir_op_cpu + self.costs.acl_check_cpu)
        yield from self.host.disk.access(1024, write=True)
        parent_path = volume.path_of(parent.number)
        inode = volume.mkdir(pathutil.join(parent_path, name), owner=conn.username)
        yield from self._break_callbacks(make_fid(volume.volume_id, parent.number), exclude=conn)
        yield from self.server.replicate_mutation(volume, {
            "op": "mkdir",
            "path": volume.path_of(inode.number),
            "vnode": inode.number,
            "owner": conn.username,
        })
        self._count("other")
        return self._status_of(volume, inode, conn.username), b""

    def remove(self, conn: Connection, args: Dict, payload: bytes, directory: bool = False):
        """Remove a file or symlink entry (``Remove`` / ``RemoveByFid``)."""
        volume, parent, name = yield from self._locate_entry(args)
        self._check(volume, parent, conn.username, Rights.DELETE)
        yield from self.host.compute(self.costs.dir_op_cpu + self.costs.acl_check_cpu)
        yield from self.host.disk.access(1024, write=True)
        target = volume.fs.child(parent, name)
        if target is None:
            raise FileNotFound(name)
        fid = make_fid(volume.volume_id, target.number)
        full = pathutil.join(volume.path_of(parent.number), name)
        if directory:
            volume.rmdir(full)
        else:
            volume.unlink(full)
        yield from self._break_callbacks(fid, exclude=conn)
        yield from self._break_callbacks(make_fid(volume.volume_id, parent.number), exclude=conn)
        yield from self.server.replicate_mutation(volume, {
            "op": "rmdir" if directory else "unlink",
            "path": full,
        })
        self._count("other")
        return {"removed": True}, b""

    def remove_dir(self, conn: Connection, args: Dict, payload: bytes):
        """Remove an empty directory entry (``RemoveDir`` / ``RemoveDirByFid``)."""
        return (yield from self.remove(conn, args, payload, directory=True))

    def rename(self, conn: Connection, args: Dict, payload: bytes):
        """Rename by pathname; the prototype refuses directory renames."""
        old, new = args["old"], args["new"]
        yield from self.host.compute(
            self._traversal_charge(old) + self._traversal_charge(new)
        )
        yield from self._traversal_io(old)
        yield from self._traversal_io(new)
        old_vol, old_rest = self._locate_path(old, want_write=True)
        new_vol, new_rest = self._locate_path(new, want_write=True)
        return (yield from self._rename_core(old_vol, old_rest, new_vol, new_rest, conn))

    def rename_by_fid(self, conn: Connection, args: Dict, payload: bytes):
        """Rename between parents named by fid (directories allowed: §5.3)."""
        yield from self.host.compute(2 * self.costs.fid_lookup_cpu)
        volume, old_parent = self._inode_from_fid(args["old_parent"], want_write=True)
        new_volume, new_parent = self._inode_from_fid(args["new_parent"], want_write=True)
        if volume is not new_volume:
            raise CrossDeviceLink("rename across volumes")
        old_rest = pathutil.join(volume.path_of(old_parent.number), args["old_name"])
        new_rest = pathutil.join(volume.path_of(new_parent.number), args["new_name"])
        return (yield from self._rename_core(volume, old_rest, volume, new_rest, conn))

    def _rename_core(self, old_vol: Volume, old_rest: str, new_vol: Volume, new_rest: str, conn: Connection):
        if old_vol is not new_vol:
            raise CrossDeviceLink("rename across volumes")
        node = old_vol.resolve(old_rest, follow=False)
        if self.server.mode == "prototype" and node.file_type == FileType.DIRECTORY:
            # §5.1: "the inability to rename directories in Vice" — a subtle
            # consequence of the prototype's pathname-keyed implementation.
            raise InvalidArgument("prototype Vice cannot rename directories")
        old_parent = old_vol.resolve(pathutil.dirname(old_rest))
        new_parent = new_vol.resolve(pathutil.dirname(new_rest))
        self._check(old_vol, old_parent, conn.username, Rights.DELETE)
        self._check(new_vol, new_parent, conn.username, Rights.INSERT)
        yield from self.host.compute(self.costs.dir_op_cpu + 2 * self.costs.acl_check_cpu)
        yield from self.host.disk.access(1024, write=True)
        replaced = None
        if old_vol.fs.exists(new_rest, follow=False):
            candidate = old_vol.resolve(new_rest, follow=False)
            if candidate.number != node.number:
                replaced = candidate
        old_vol.rename(old_rest, new_rest)
        for parent in {old_parent.number, new_parent.number}:
            yield from self._break_callbacks(make_fid(old_vol.volume_id, parent), exclude=conn)
        # Holders of the moved file cache it under its *old name*: their
        # path-to-fid binding is now wrong even though the bytes are not,
        # so their callbacks must break (the renamer fixed its own mapping).
        yield from self._break_callbacks(make_fid(old_vol.volume_id, node.number), exclude=conn)
        if replaced is not None:
            yield from self._break_callbacks(
                make_fid(old_vol.volume_id, replaced.number), exclude=conn
            )
        yield from self.server.replicate_mutation(old_vol, {
            "op": "rename",
            "old": old_rest,
            "new": new_rest,
        })
        self._count("other")
        return self._status_of(old_vol, node, conn.username), b""

    def make_symlink(self, conn: Connection, args: Dict, payload: bytes):
        """Create a symlink inside Vice (``MakeSymlink`` / ``SymlinkByFid``;
        revised design only, §5.1)."""
        if self.server.mode == "prototype":
            raise InvalidArgument("prototype Vice does not support symbolic links")
        volume, parent, name = yield from self._locate_entry(args)
        target = args["target"]
        self._check(volume, parent, conn.username, Rights.INSERT)
        yield from self.host.compute(self.costs.dir_op_cpu + self.costs.acl_check_cpu)
        yield from self.host.disk.access(512, write=True)
        parent_path = volume.path_of(parent.number)
        inode = volume.symlink(pathutil.join(parent_path, name), target, owner=conn.username)
        yield from self._break_callbacks(make_fid(volume.volume_id, parent.number), exclude=conn)
        yield from self.server.replicate_mutation(volume, {
            "op": "symlink",
            "path": volume.path_of(inode.number),
            "vnode": inode.number,
            "target": target,
            "owner": conn.username,
        })
        self._count("other")
        return self._status_of(volume, inode, conn.username), b""

    # ------------------------------------------------------------------
    # protection
    # ------------------------------------------------------------------

    def get_acl(self, conn: Connection, args: Dict, payload: bytes):
        """Read a directory's access list (``GetACL`` / ``GetACLByFid``)."""
        volume, inode = yield from self._locate(args, False, self.costs.status_cpu)
        self._check(volume, inode, conn.username, Rights.LOOKUP)
        self._count("other")
        if inode.file_type != FileType.DIRECTORY:
            raise NotADirectory("ACLs attach to directories")
        return volume.acls[inode.number].as_dict(), b""

    def set_acl(self, conn: Connection, args: Dict, payload: bytes):
        """Replace a directory's access list (``SetACL`` / ``SetACLByFid``;
        requires 'a')."""
        volume, inode = yield from self._locate(args, want_write=True)
        record = args["acl"]
        if inode.file_type != FileType.DIRECTORY:
            raise NotADirectory("ACLs attach to directories")
        self._check(volume, inode, conn.username, Rights.ADMINISTER)
        yield from self.host.compute(self.costs.dir_op_cpu + self.costs.acl_check_cpu)
        yield from self.host.disk.access(512, write=True)
        volume._check_writable()
        volume.set_acl(inode.number, AccessList.from_dict(record))
        # Protection changed: everyone caching the directory or a file in it
        # must revalidate (and validation re-checks rights), so revocation
        # takes effect at the next open campus-wide.
        yield from self._break_callbacks(make_fid(volume.volume_id, inode.number), exclude=None)
        for entry in list(volume.listing(inode).values()):
            yield from self._break_callbacks(entry["fid"], exclude=None)
        yield from self.server.replicate_mutation(volume, {
            "op": "set_acl",
            "path": volume.path_of(inode.number),
            "acl": record,
        })
        self._count("other")
        return {"ok": True}, b""

    # ------------------------------------------------------------------
    # locks (pathname only)
    # ------------------------------------------------------------------

    def set_lock(self, conn: Connection, args: Dict, payload: bytes):
        """Advisory lock by pathname; prototype serialises via lock server."""
        volume, inode = yield from self._locate(args, False, self.costs.lock_cpu)
        self._check(volume, inode, conn.username, Rights.LOCK)
        fid = make_fid(volume.volume_id, inode.number)
        owner = f"{conn.username}@{conn.client_name}"
        yield from self.server.lock_serialization()
        self.server.clients.acquire(fid, owner, bool(args.get("exclusive")))
        self._count("other")
        return {"locked": True, "fid": fid}, b""

    def release_lock(self, conn: Connection, args: Dict, payload: bytes):
        """Release an advisory lock by pathname."""
        volume, inode = yield from self._locate(args, False, self.costs.lock_cpu)
        fid = make_fid(volume.volume_id, inode.number)
        owner = f"{conn.username}@{conn.client_name}"
        yield from self.server.lock_serialization()
        self.server.clients.release(fid, owner)
        self._count("other")
        return {"released": True}, b""
