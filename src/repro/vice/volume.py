"""Volumes: the unit of storage administration in Vice.

Paper §5.3: "A volume is a complete subtree of files whose root may be
arbitrarily relocated in the Vice name space... Each volume may be taken
offline or online, moved between servers and salvaged after a system crash.
A volume may also be *cloned*, thereby creating a frozen, read-only replica
of that volume", with copy-on-write making cloning inexpensive.

Here a volume owns a private :class:`~repro.storage.unixfs.UnixFileSystem`
plus the Vice metadata the file server needs:

* a **vnode index** so fid-based operations are O(1) (each inode knows
  its parent directory's number, so the index is all a fid walk needs),
* provisioned files held in their directory's
  :class:`~repro.storage.unixfs.Manifest` until first asked for
  (:meth:`Volume.provision`); listings, paths, counts, snapshots, clones
  and salvage read the manifest and build no inode,
* per-directory **access lists** (files inherit their directory's ACL —
  "all files within a directory have the same protection status"),
* **quota** accounting,
* online/offline state, and
* :meth:`clone`, which copies the inode *tree* but shares the file *data*
  (Python ``bytes`` are immutable, giving genuine copy-on-write cost).

The prototype predates volumes; in prototype mode the same class is used as
a plain custodian subtree with the volume-only operations disabled at the
server layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    QuotaExceeded,
    ReadOnlyFileSystem,
    VolumeOffline,
)
from repro.storage import pathutil
from repro.storage.unixfs import (
    FileType,
    Inode,
    Manifest,
    ProvisionedBody,
    ProvisionedRun,
    UnixFileSystem,
)
from repro.vice.ids import make_fid
from repro.vice.protection import AccessList

__all__ = ["VnodeIndex", "Volume"]


class VnodeIndex:
    """A volume's vnode index, vnode -> inode, read like a dict.

    A volume numbers its vnodes 1, 2, 3, ... (copies and clones keep the
    numbers; a removed file leaves a hole), so one list indexed by vnode
    holds the index in a pointer per vnode, a hole being ``None``.  The
    slot of a provisioned file holds its :class:`ProvisionedRun` until a
    lookup (``get``, ``[]``) builds its inode;
    ``peek`` and ``slots`` look without building.
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Iterable[Inode] = ()):
        self._nodes: List[Any] = []
        for node in nodes:
            self[node.number] = node

    def get(self, vnode: int, default: Optional[Inode] = None) -> Optional[Inode]:
        nodes = self._nodes
        node = nodes[vnode] if 0 <= vnode < len(nodes) else None
        if node is None:
            return default
        if type(node) is ProvisionedRun:
            node = nodes[vnode] = node.node(vnode - node.first)
        return node

    def __getitem__(self, vnode: int) -> Inode:
        node = self.get(vnode)
        if node is None:
            raise KeyError(vnode)
        return node

    def peek(self, vnode: int) -> Union[Inode, ProvisionedRun, None]:
        """The inode of ``vnode`` if it has one, else the run holding it
        (None for a hole); builds nothing."""
        nodes = self._nodes
        node = nodes[vnode] if 0 <= vnode < len(nodes) else None
        if type(node) is ProvisionedRun:
            return node.peek(vnode) or node
        return node

    def slots(self) -> Iterator[Tuple[int, Union[Inode, ProvisionedRun]]]:
        """``(vnode, slot)`` for every vnode in use, as held: a provisioned
        file's run stands for it, built or not.  Builds nothing."""
        return ((vnode, node) for vnode, node in enumerate(self._nodes)
                if node is not None)

    def __contains__(self, vnode: int) -> bool:
        nodes = self._nodes
        return 0 <= vnode < len(nodes) and nodes[vnode] is not None

    def __setitem__(self, vnode: int, node: Union[Inode, ProvisionedRun]) -> None:
        nodes = self._nodes
        gap = vnode - len(nodes)
        if gap < 0:
            nodes[vnode] = node
            return
        if gap:
            nodes.extend([None] * gap)
        nodes.append(node)  # the next number, as vnodes are allocated

    def pop(self, vnode: int, default: Any = None) -> Any:
        """Empty ``vnode``'s slot; returns what it held, built or not."""
        nodes = self._nodes
        node = nodes[vnode] if 0 <= vnode < len(nodes) else None
        if node is None:
            return default
        nodes[vnode] = None
        return node

    def __len__(self) -> int:
        return len(self._nodes) - self._nodes.count(None)

    def __iter__(self) -> Iterator[int]:
        return (vnode for vnode, node in enumerate(self._nodes) if node is not None)


class Volume:
    """One administrable subtree of Vice files."""

    def __init__(
        self,
        volume_id: str,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        quota_bytes: Optional[int] = None,
        read_only: bool = False,
        owner: str = "system:administrators",
    ):
        if "." in volume_id:
            raise InvalidArgument(f"volume id may not contain '.': {volume_id!r}")
        self.volume_id = volume_id
        self.name = name
        self.quota_bytes = quota_bytes
        self.read_only = read_only
        self.owner = owner
        self.online = True
        self.cloned_from: Optional[str] = None
        # Read-write replication (repro.vice.replication).  None on every
        # unreplicated volume; "primary" accepts client writes and
        # propagates them, "secondary" holds a copy and refers clients to
        # the custodian.  The version vector counts applied writes per
        # origin server; comparing vectors detects replica divergence
        # after a crash mid-propagation.
        self.replica_role: Optional[str] = None
        self.version_vector: Dict[str, int] = {}
        # Erasure coding (repro.vice.erasure).  None on every plain
        # volume.  A coded stripe member keeps the full metadata tree
        # with *empty* file data, plus its own fragment of every file
        # keyed by vnode (bytes, or a provisioned file's unbuilt
        # fragment); true lengths back the status size so clients never
        # see the (padded) fragment length.
        self.erasure_shape: Optional[Tuple[int, int]] = None
        self.erasure_index: Optional[int] = None
        self.fragments: Dict[int, bytes] = {}
        self.fragment_true_sizes: Dict[int, int] = {}
        self.fragment_bytes = 0
        self.logical_bytes = 0
        self.fs = UnixFileSystem(clock, name=f"vol:{volume_id}")
        self.used_bytes = 0
        self._inodes = VnodeIndex([self.fs.root])
        self.acls: Dict[int, AccessList] = {}
        self.set_acl(self.fs.root.number, self._default_acl(owner))

    @staticmethod
    def _default_acl(owner: str) -> AccessList:
        acl = AccessList()
        acl.grant(owner, "rwidlak")
        acl.grant("system:anyuser", "rl")
        return acl

    # -- state guards --------------------------------------------------------

    def _check_online(self) -> None:
        if not self.online:
            raise VolumeOffline(f"volume {self.volume_id} is offline")

    def _check_writable(self) -> None:
        self._check_online()
        if self.read_only:
            raise ReadOnlyFileSystem(f"volume {self.volume_id} is read-only")

    def _check_quota(self, delta: int) -> None:
        if delta > 0 and self.quota_bytes is not None:
            if self.used_bytes + delta > self.quota_bytes:
                raise QuotaExceeded(
                    f"volume {self.volume_id}: {self.used_bytes}+{delta} exceeds"
                    f" quota {self.quota_bytes}"
                )

    # -- lookup ---------------------------------------------------------------

    def resolve(self, path: str, follow: bool = True) -> Inode:
        """Resolve a volume-relative path to its inode."""
        self._check_online()
        return self.fs.resolve(path, follow=follow)

    def inode_by_vnode(self, vnode: int) -> Inode:
        """O(1) fid resolution via the vnode index."""
        self._check_online()
        try:
            return self._inodes[vnode]
        except KeyError:
            raise FileNotFound(f"fid {make_fid(self.volume_id, vnode)}")

    def parent_of(self, vnode: int) -> Inode:
        """The directory containing the given vnode (root is its own parent)."""
        if vnode == self.fs.root.number:
            return self.fs.root
        node = self._inodes.peek(vnode)
        if type(node) is ProvisionedRun:
            return node.directory
        parent = self._inodes.get(node.parent) if node is not None else None
        if parent is None:
            raise FileNotFound(f"parent of vnode {vnode}")
        return parent

    def path_of(self, vnode: int) -> str:
        """Volume-relative path of a vnode (walks the parent chain)."""
        if vnode == self.fs.root.number:
            return "/"
        parts: List[str] = []
        current = vnode
        while current != self.fs.root.number:
            parent = self.parent_of(current)
            name = UnixFileSystem.name_of(parent, current)
            if name is None:
                raise FileNotFound(f"vnode {current} is orphaned")
            parts.append(name)
            current = parent.number
        return "/" + "/".join(reversed(parts))

    def fid_of(self, path: str) -> str:
        """The fid of the object at a volume-relative path."""
        return make_fid(self.volume_id, self.resolve(path).number)

    def listing(self, directory: Inode) -> Dict[str, Dict[str, str]]:
        """A directory's entries as Vice serves them: name -> fid and type.

        Built once per directory state and kept on the inode, so every
        reply and every Venus cache that receives it shares one dict:
        nobody may mutate it.  A change to the entries drops it (in
        ``UnixFileSystem``), as does :meth:`_renumber`, which changes a
        child's fid without a new directory version."""
        if directory.file_type != FileType.DIRECTORY:
            raise NotADirectory(self.path_of(directory.number))
        listing = directory.listing
        if listing is None:
            volume_id = self.volume_id
            listing = directory.listing = {
                name: {"fid": make_fid(volume_id, child.number), "type": child.file_type}
                if child is not None else
                {"fid": make_fid(volume_id, run.first + index), "type": FileType.FILE}
                for name, child, run, index in UnixFileSystem.children(directory)
            }
        return listing

    def set_acl(self, vnode: int, acl: AccessList) -> None:
        """Install ``acl`` on directory ``vnode``; from now on it may be
        shared (new subdirectories, clones), so it is never edited again."""
        acl.installed = True
        self.acls[vnode] = acl

    def acl_for(self, inode: Inode) -> AccessList:
        """The governing ACL: the directory's own, or the parent's for files."""
        if inode.file_type == FileType.DIRECTORY:
            return self.acls[inode.number]
        return self.acls[inode.parent or self.fs.root.number]

    # -- mutation (keeps index, quota and ACLs coherent) -----------------------

    def create_file(self, path: str, data: bytes = b"", owner: str = "root") -> Inode:
        """Create a file with ``data``."""
        parent, name = self.fs._resolve_parent(path)
        if self.fs.child(parent, name) is not None:
            raise FileExists(path)
        return self.create_under(parent, name, bytes(data), owner=owner)

    def create_under(
        self, parent: Inode, name: str, body: Union[bytes, ProvisionedBody] = b"",
        owner: str = "root",
    ) -> Inode:
        """Create a file as the free ``name`` of a directory already
        resolved; ``body`` is held as given (an unbuilt one stays unbuilt)."""
        self._check_writable()
        self._check_quota(len(body))
        node = self.fs.insert_under(parent, name, FileType.FILE, owner)
        node.body = body
        self._inodes[node.number] = node
        self.used_bytes += len(body)
        return node

    def provision(
        self, parent: Inode, name: str, body: Union[bytes, ProvisionedBody] = b"",
        owner: str = "root",
    ) -> int:
        """Create a file as :meth:`create_under` does, leaving it without
        an inode in ``parent``'s manifest until it is first asked for.
        Returns its vnode number."""
        size = len(body)
        if self.read_only or not self.online or self.quota_bytes is not None:
            # create_under's checks, made only when one of them can refuse
            self._check_writable()
            self._check_quota(size)
        run = self.fs.provision_under(parent, name, body, owner)
        vnode = run.first + run.length - 1
        self._inodes[vnode] = run
        self.used_bytes += size
        return vnode

    def mkdir(self, path: str, owner: str = "root") -> Inode:
        """Create a directory; it shares its parent's ACL until either
        directory's is replaced (:meth:`set_acl`)."""
        self._check_writable()
        parent = self.fs.resolve(pathutil.dirname(path))
        node = self.fs.mkdir(path, owner=owner)
        self._inodes[node.number] = node
        self.acls[node.number] = self.acls[parent.number]
        return node

    def makedirs(self, path: str, owner: str = "root") -> Inode:
        """The directory at ``path``, after :meth:`mkdir` of each missing ancestor."""
        built = ""
        for part in pathutil.components(pathutil.normalize(path)):
            built += "/" + part
            if not self.fs.exists(built):
                self.mkdir(built, owner=owner)
        return self.fs.resolve(path)

    def symlink(self, path: str, target: str, owner: str = "root") -> Inode:
        """Create a symbolic link (revised design only; guarded by the server)."""
        self._check_writable()
        node = self.fs.symlink(path, target, owner=owner)
        self._inodes[node.number] = node
        return node

    def write(self, path: str, data: bytes, owner: str = "root") -> Inode:
        """Whole-file store: replace contents (creating if absent)."""
        self._check_writable()
        try:
            existing = self.fs.resolve(path)
            delta = len(data) - existing.size
        except FileNotFound:
            existing = None
            delta = len(data)
        self._check_quota(delta)
        if existing is None:
            return self.create_file(path, data, owner=owner)
        node = self.fs.write(path, data)
        self.used_bytes += delta
        return node

    def write_vnode(self, vnode: int, data: bytes) -> Inode:
        """Whole-file store addressed by fid."""
        self._check_writable()
        node = self.inode_by_vnode(vnode)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(self.path_of(vnode))
        delta = len(data) - node.size
        self._check_quota(delta)
        node.data = bytes(data)
        node.version += 1
        node.mtime = self.fs._clock()
        self.used_bytes += delta
        return node

    def read(self, path: str) -> bytes:
        """Whole-file fetch."""
        self._check_online()
        return self.fs.read(path)

    def unlink(self, path: str) -> None:
        """Remove a file or symlink."""
        self._check_writable()
        node = self.fs.resolve(path, follow=False)
        self.fs.unlink(path)
        self._forget(node)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self._check_writable()
        node = self.fs.resolve(path, follow=False)
        self.fs.rmdir(path)
        self._forget(node)
        self.acls.pop(node.number, None)

    def rename(self, old: str, new: str) -> None:
        """Rename within the volume; fids are invariant across this."""
        self._check_writable()
        node = self.fs.resolve(old, follow=False)
        target_replaced = None
        if self.fs.exists(new, follow=False):
            target_replaced = self.fs.resolve(new, follow=False)
        self.fs.rename(old, new)
        if target_replaced is not None and target_replaced.number != node.number:
            self._forget(target_replaced)

    # -- erasure coding (repro.vice.erasure) --------------------------------------

    def set_fragment(self, vnode: int, frag: bytes, true_len: int) -> None:
        """Install this member's fragment of a striped file, held as given
        (an unbuilt ``ProvisionedFragment`` stays unbuilt)."""
        self.fragment_bytes += len(frag) - len(self.fragments.get(vnode, b""))
        self.logical_bytes += true_len - self.fragment_true_sizes.get(vnode, 0)
        self.fragments[vnode] = frag
        self.fragment_true_sizes[vnode] = true_len

    def drop_fragment(self, vnode: int) -> None:
        """Forget the fragment of a deleted (or renumbered-away) file."""
        frag = self.fragments.pop(vnode, None)
        if frag is not None:
            self.fragment_bytes -= len(frag)
        self.logical_bytes -= self.fragment_true_sizes.pop(vnode, 0)

    def version_of(self, vnode: int) -> Optional[int]:
        """The version of ``vnode`` (None if not in use), building nothing."""
        node = self._inodes.peek(vnode)
        if type(node) is ProvisionedRun:
            return 1  # as created
        return node.version if node is not None else None

    def file_versions(self) -> Dict[int, int]:
        """vnode -> version of every file in the volume, building nothing."""
        versions = {}
        for vnode in self._inodes:
            node = self._inodes.peek(vnode)
            if type(node) is ProvisionedRun:
                versions[vnode] = 1  # as created
            elif node.file_type == FileType.FILE:
                versions[vnode] = node.version
        return versions

    def size_of(self, inode: Inode) -> int:
        """The logical size clients should see (fragments hide the data)."""
        if self.erasure_shape is not None:
            size = self.fragment_true_sizes.get(inode.number)
            if size is not None:
                return size
        return inode.size

    # -- read-write replication (repro.vice.replication) -------------------------

    def bump_version_vector(self, origin: str) -> Dict[str, int]:
        """Count one applied write from ``origin``; returns the new vector."""
        self.version_vector[origin] = self.version_vector.get(origin, 0) + 1
        return self.version_vector

    def divergent_against(self, incoming: Dict[str, int]) -> int:
        """Writes this copy holds that the ``incoming`` vector does not.

        A positive count means this replica applied writes the (authoritative)
        sender never saw — the crash-mid-propagation signature.  Those writes
        are discarded when the authoritative snapshot replaces this copy.
        """
        return sum(
            max(0, count - incoming.get(origin, 0))
            for origin, count in self.version_vector.items()
        )

    def apply_replica_op(self, record: Dict, payload: bytes = b"") -> None:
        """Apply one mutation shipped by the primary (secondary side).

        The record carries the primary's post-apply state: the path, the
        assigned vnode number and version (fids must resolve identically at
        every replica so Venus caches survive a failover), and the
        primary's version vector, which this copy adopts wholesale — the
        propagation stream is the serialisation order.
        """
        op = record["op"]
        owner = record.get("owner", self.owner)
        if op == "write":
            frag = record.get("frag")
            node = self.write(
                record["path"], b"" if frag is not None else payload, owner=owner
            )
            self._renumber(node, record["vnode"])
            node.version = record["version"]
            if frag is not None:
                # A striped store: the payload is this member's fragment,
                # not file data; the true length rides in the record.
                self.set_fragment(node.number, payload, frag["len"])
        elif op == "mkdir":
            node = self.mkdir(record["path"], owner=owner)
            self._renumber(node, record["vnode"])
        elif op == "symlink":
            node = self.symlink(record["path"], record["target"], owner=owner)
            self._renumber(node, record["vnode"])
        elif op == "unlink":
            self.unlink(record["path"])
        elif op == "rmdir":
            self.rmdir(record["path"])
        elif op == "rename":
            self.rename(record["old"], record["new"])
        elif op == "set_acl":
            inode = self.resolve(record["path"])
            self.set_acl(inode.number, AccessList.from_dict(record["acl"]))
        else:
            raise InvalidArgument(f"unknown replica op {op!r}")
        self.version_vector = dict(record.get("vv") or {})

    def _renumber(self, node: Inode, vnode: int) -> None:
        """Force a freshly created inode onto the primary's vnode number."""
        old = node.number
        if old == vnode:
            return
        if vnode in self._inodes:
            raise InvalidArgument(
                f"vnode {vnode} already in use in {self.volume_id}"
            )
        self._inodes.pop(old, None)
        self._inodes[vnode] = node
        parent = self._inodes.get(node.parent)
        if parent is not None:
            parent.listing = None  # the child's fid changed
        for child in node.entries.values():
            child.parent = vnode
        acl = self.acls.pop(old, None)
        if acl is not None:
            self.acls[vnode] = acl
        frag = self.fragments.pop(old, None)
        if frag is not None:
            self.fragments[vnode] = frag
            self.fragment_true_sizes[vnode] = self.fragment_true_sizes.pop(old)
        node.number = vnode
        if vnode > old:
            # Keep this copy's allocator clear of adopted numbers.
            while next(self.fs._inode_numbers) < vnode + 1:
                pass

    def _forget(self, node: Inode) -> None:
        if node.file_type == FileType.FILE:
            self.used_bytes -= node.size
            self.drop_fragment(node.number)
        for _name, child, run, index in list(UnixFileSystem.children(node)):
            if child is not None:
                self._forget(child)
            else:
                self.used_bytes -= run.size(index)
                self.drop_fragment(run.first + index)
                self._inodes.pop(run.first + index)
        self._inodes.pop(node.number, None)
        self.acls.pop(node.number, None)

    # -- administration ----------------------------------------------------------

    def take_offline(self) -> None:
        """Make the volume unavailable (move, salvage)."""
        self.online = False

    def bring_online(self) -> None:
        """Restore availability."""
        self.online = True

    def clone(self, clone_id: str, name: Optional[str] = None) -> "Volume":
        """A frozen read-only replica sharing file data copy-on-write.

        "The creation of a read-only subtree is an atomic operation, thus
        providing a convenient mechanism to support the orderly release of
        new system software."  Inode numbers are preserved so fids translate
        between a volume and its clones by swapping the volume id.
        """
        self._check_online()
        if self.erasure_shape is not None:
            raise InvalidArgument(
                "read-only release is unsupported for erasure-coded volumes"
            )
        replica = Volume(
            clone_id,
            name or f"{self.name}.readonly",
            clock=self.fs._clock,
            read_only=True,
            owner=self.owner,
        )
        replica.cloned_from = self.volume_id
        replica.fs = UnixFileSystem(self.fs._clock, name=f"vol:{clone_id}")
        replica.fs.root = self._copy_inode(self.fs.root)
        replica._inodes = VnodeIndex()
        replica._index_tree(replica.fs.root)
        replica.acls = dict(self.acls)  # installed lists: shared, never edited
        replica.used_bytes = self.used_bytes
        replica.online = True
        return replica

    def _copy_inode(self, node: Inode) -> Inode:
        copy = Inode(node.number, node.file_type, node.owner, node.mtime)
        copy.body = node.body  # shared, built or not: the copy-on-write part
        copy.parent = node.parent
        copy.version = node.version
        copy.mode_bits = node.mode_bits
        for name, child in node.entries.items():
            copy.entries[name] = self._copy_inode(child)
        if node.manifest is not None:
            copy.manifest = node.manifest.copy(copy, self._copy_inode)
        return copy

    def _index_tree(self, node: Inode) -> None:
        self._inodes[node.number] = node
        for _name, child, run, index in UnixFileSystem.children(node):
            if child is not None:
                self._index_tree(child)
            else:
                self._inodes[run.first + index] = run

    def salvage(self) -> Dict[str, int]:
        """Consistency-check and repair after a server crash (§5.3).

        "Each volume may be turned offline or online, moved between servers
        and *salvaged after a system crash*."  The salvager walks the tree
        and rebuilds everything derivable: the vnode index, the parent links,
        the byte accounting, and missing directory ACLs (re-inherited from
        the parent).  Returns a report of what it fixed; a clean volume
        reports all zeros.  The volume must be offline.
        """
        if self.online:
            raise InvalidArgument("salvage requires the volume to be offline")
        report = {
            "dangling_index_entries": 0,
            "missing_index_entries": 0,
            "wrong_parent_links": 0,
            "byte_accounting_drift": 0,
            "missing_acls": 0,
        }
        reachable: Dict[int, Union[Inode, ProvisionedRun]] = {}
        acls: Dict[int, AccessList] = {}
        used = 0

        def walk(node: Inode, parent: Optional[Inode]) -> None:
            nonlocal used
            reachable[node.number] = node
            if parent is not None and node.parent != parent.number:
                report["wrong_parent_links"] += 1
                node.parent = parent.number
            if node.file_type == FileType.FILE:
                used += node.size
            if node.file_type == FileType.DIRECTORY:
                acl = self.acls.get(node.number)
                if acl is None:
                    report["missing_acls"] += 1
                    acl = acls.get(parent.number) if parent is not None else None
                    if acl is None:
                        acl = self._default_acl(self.owner)
                acls[node.number] = acl
                for _name, child, run, index in UnixFileSystem.children(node):
                    if child is not None:
                        walk(child, node)
                    else:
                        reachable[run.first + index] = run
                        used += run.size(index)

        walk(self.fs.root, None)
        report["dangling_index_entries"] = len(set(self._inodes) - set(reachable))
        report["missing_index_entries"] = len(set(reachable) - set(self._inodes))
        if self.used_bytes != used:
            report["byte_accounting_drift"] = abs(self.used_bytes - used)
        self._inodes = VnodeIndex()
        for vnode, slot in reachable.items():
            self._inodes[vnode] = slot
        self.acls = {}
        for vnode, acl in acls.items():
            self.set_acl(vnode, acl)
        self.used_bytes = used
        if self.erasure_shape is not None:
            files = {
                num for num, node in reachable.items()
                if type(node) is ProvisionedRun or node.file_type == FileType.FILE
            }
            orphans = [v for v in self.fragments if v not in files]
            for vnode in orphans:
                self.drop_fragment(vnode)
            report["orphan_fragments"] = len(orphans)
        return report

    # -- serialisation (volume moves between servers) ----------------------------

    def snapshot(self) -> Dict:
        """A marshal-friendly full copy, preserving vnode numbers.

        Used to ship a volume to another server during a move; fids stay
        valid because vnode numbers survive the round trip.  File bodies
        and fragments are the volume's own objects, unbuilt if they are:
        the copy shares them, and its wire length is
        ``marshal.wire_size`` of it.
        """
        nodes: List[Dict] = []
        self._record_tree("/", self.fs.root, nodes)
        snap = {
            "volume_id": self.volume_id,
            "name": self.name,
            "quota_bytes": self.quota_bytes,
            "read_only": self.read_only,
            "owner": self.owner,
            "cloned_from": self.cloned_from,
            "nodes": nodes,
        }
        # Replication metadata ships only for replicated volumes so the
        # wire form (and its byte-derived costs) of plain volume moves is
        # unchanged.
        if self.replica_role is not None or self.version_vector:
            snap["replica_role"] = self.replica_role
            snap["version_vector"] = dict(self.version_vector)
        # Likewise erasure metadata: only coded stripe members ship their
        # shape, slot index and fragment set (marshal needs string keys).
        if self.erasure_shape is not None:
            snap["erasure_shape"] = list(self.erasure_shape)
            snap["erasure_index"] = self.erasure_index
            snap["fragments"] = {
                str(v): f for v, f in sorted(self.fragments.items())
            }
            snap["fragment_sizes"] = {
                str(v): n for v, n in sorted(self.fragment_true_sizes.items())
            }
        return snap

    def _record_tree(self, path: str, inode: Inode, nodes: List[Dict]) -> None:
        """Append the snapshot records of ``inode`` and everything under it,
        depth first and by name; a provisioned file without an inode is
        recorded from its run."""
        nodes.append({
            "path": path,
            "vnode": inode.number,
            "type": inode.file_type,
            "data": inode.body if inode.file_type == FileType.FILE else b"",
            "target": inode.target,
            "version": inode.version,
            "mtime": inode.mtime,
            "owner": inode.owner,
            "mode": inode.mode_bits,
            "acl": (
                self.acls[inode.number].as_dict()
                if inode.file_type == FileType.DIRECTORY
                else None
            ),
        })
        if inode.file_type == FileType.DIRECTORY:
            for name, child, run, index in sorted(UnixFileSystem.children(inode),
                                                  key=_by_name):
                self._record_tree(pathutil.join(path, name),
                                  child if child is not None else run.inode(index), nodes)

    @classmethod
    def from_snapshot(cls, snapshot: Dict, clock: Optional[Callable[[], float]] = None) -> "Volume":
        """Reconstruct a volume shipped by :meth:`snapshot`.

        Bodies and fragments are adopted as they arrive: by reference from
        a snapshot handed over in process, so the new copy shares them
        with its source until a store replaces one (stores replace a body,
        never edit it).  A provisioned file still as created (an unbuilt
        body, version 1, mode 0o644) joins its directory's manifest rather
        than get an inode, as it was held where the snapshot was taken."""
        volume = cls(
            snapshot["volume_id"],
            snapshot["name"],
            clock=clock,
            quota_bytes=snapshot.get("quota_bytes"),
            read_only=snapshot.get("read_only", False),
            owner=snapshot.get("owner", "system:administrators"),
        )
        volume.cloned_from = snapshot.get("cloned_from")
        volume.replica_role = snapshot.get("replica_role")
        volume.version_vector = dict(snapshot.get("version_vector") or {})
        volume._inodes = VnodeIndex()
        volume.acls = {}
        by_path: Dict[str, Inode] = {}
        max_vnode = 1
        for record in snapshot["nodes"]:
            if (type(record["data"]) is ProvisionedBody and record["version"] == 1
                    and record["mode"] == 0o644):
                parent = by_path[pathutil.dirname(record["path"])]
                if parent.manifest is None:
                    parent.manifest = Manifest()
                run = parent.manifest.add(
                    parent, pathutil.basename(record["path"]), record["data"],
                    record["vnode"], record["owner"], record["mtime"], compact=False)
                volume._inodes[record["vnode"]] = run
                volume.used_bytes += len(record["data"])
                max_vnode = max(max_vnode, record["vnode"])
                continue
            node = Inode(record["vnode"], record["type"], record["owner"], record["mtime"])
            node.body = (record["target"] if node.file_type == FileType.SYMLINK
                         else record["data"])
            node.version = record["version"]
            node.mode_bits = record["mode"]
            by_path[record["path"]] = node
            max_vnode = max(max_vnode, node.number)
            if record["path"] == "/":
                volume.fs.root = node
            else:
                parent = by_path[pathutil.dirname(record["path"])]
                parent.entries[pathutil.basename(record["path"])] = node
                node.parent = parent.number
            volume._inodes[node.number] = node
            if record["acl"] is not None:
                volume.set_acl(node.number, AccessList.from_dict(record["acl"]))
            if node.file_type == FileType.FILE:
                volume.used_bytes += node.size
        shape = snapshot.get("erasure_shape")
        if shape is not None:
            volume.erasure_shape = (shape[0], shape[1])
            volume.erasure_index = snapshot.get("erasure_index")
            sizes = snapshot.get("fragment_sizes") or {}
            for key, frag in (snapshot.get("fragments") or {}).items():
                volume.set_fragment(int(key), frag, int(sizes.get(key, 0)))
        # Keep future inode numbers clear of the shipped ones.
        while next(volume.fs._inode_numbers) < max_vnode + 1:
            pass
        return volume

    @property
    def file_count(self) -> int:
        """Number of regular files in the volume (builds nothing)."""
        return sum(1 for _vnode, node in self._inodes.slots()
                   if type(node) is ProvisionedRun or node.file_type == FileType.FILE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "ro" if self.read_only else "rw"
        state = "online" if self.online else "OFFLINE"
        return f"<Volume {self.volume_id} ({self.name}) {flags} {state} files={self.file_count}>"


def _by_name(entry: Tuple) -> str:
    return entry[0]
