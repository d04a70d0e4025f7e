"""An in-memory Unix-like file system.

This is the storage substrate everything stands on, exactly as in the paper:
the workstation's local root file system, Venus's cache directory, and the
server's backing store ("the prototype file server uses the underlying Unix
file system for storage of Vice files") are all instances of
:class:`UnixFileSystem`.

It is a pure data structure — no virtual time — so it can be tested
exhaustively (including with hypothesis); the simulation charges disk time
separately through :class:`repro.storage.disk.Disk`.

Supported: hierarchical directories, regular files with whole-file read /
write, symbolic links with loop detection, rename of files *and* directories
(the prototype famously could not rename directories; this substrate can,
and the prototype-mode Vice layer refuses it at a higher level), stat with
version numbers for cache validation, and byte accounting for space-limited
caches and quotas.
"""

from __future__ import annotations

import itertools
import sys
import types
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    TooManySymlinks,
)
from repro.storage import pathutil

__all__ = ["FileType", "Inode", "Manifest", "ProvisionedBody", "ProvisionedRun", "Stat",
           "UnixFileSystem"]

_MAX_SYMLINK_HOPS = 40

# The entries of every file and symbolic link: one read-only empty table,
# so only directories pay for a dict.
_NO_ENTRIES: Mapping[str, "Inode"] = types.MappingProxyType({})


class FileType:
    """Inode type tags (plain strings for cheap comparison and repr)."""

    FILE = "file"
    DIRECTORY = "directory"
    SYMLINK = "symlink"


@dataclass
class Stat:
    """Snapshot of an inode's metadata, as returned by ``stat``."""

    inode: int
    file_type: str
    size: int
    version: int
    mtime: float
    owner: str
    mode_bits: int


class ProvisionedBody:
    """Setup-time filler known by its stamp and size: ``stamp`` repeated and
    cut to ``size`` bytes.  An :class:`Inode` may hold one in place of
    ``bytes``; the bytes are built wherever content is consumed and are
    never kept in its place."""

    __slots__ = ("stamp", "size")

    def __init__(self, stamp: bytes, size: int):
        self.stamp = stamp
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return (self.stamp * (self.size // len(self.stamp) + 1))[:self.size]


class Inode:
    """One file-system object: a file, directory or symbolic link.

    Only a directory owns its ``entries`` dict.  Every file and symbolic
    link shares one read-only empty mapping, which must not be written
    (an attempt raises ``TypeError``).  A directory that provisioning
    filled also holds a :class:`Manifest` (``manifest``) of the files it
    has no inode for yet, so its children are read through
    :meth:`UnixFileSystem.child` and :meth:`UnixFileSystem.children`,
    never from ``entries`` alone.  ``parent`` is the number of the
    directory holding the inode (0 for a root or an inode not linked in),
    kept by :class:`UnixFileSystem` on insert and rename.
    """

    __slots__ = ("number", "file_type", "body", "entries", "manifest", "listing",
                 "parent", "version", "mtime", "owner", "mode_bits")

    def __init__(self, number: int, file_type: str, owner: str = "root", mtime: float = 0.0):
        self.number = number
        self.file_type = file_type
        # What a file holds: ``bytes``, or a ProvisionedBody that stays
        # unbuilt however often it is read.  Size is metadata
        # (``len(body)``); ``data`` is the bytes.  A symbolic link holds
        # its target path here (``target``).
        self.body: Union[bytes, ProvisionedBody, str] = (
            "" if file_type == FileType.SYMLINK else b"")
        self.entries: Dict[str, "Inode"] = (
            {} if file_type == FileType.DIRECTORY else _NO_ENTRIES)
        self.manifest: Optional[Manifest] = None
        # A directory's listing as Vice serves it, built once per state by
        # ``Volume.listing`` and shared by every reply and client cache that
        # receives it; whatever changes ``entries`` drops it, never edits it.
        self.listing: Optional[Dict[str, Dict[str, str]]] = None
        self.parent = 0
        self.version = 1
        self.mtime = mtime
        self.owner = owner
        # Unix per-file protection bits (rwx for owner/group/other). Vice in
        # prototype mode ignores these (per-directory ACLs only); the revised
        # design honours them alongside ACLs (§5.1).
        self.mode_bits = 0o644 if file_type == FileType.FILE else 0o755

    @property
    def data(self) -> bytes:
        """The file's bytes, built per call if provisioned unbuilt (the
        body itself stays unbuilt)."""
        return bytes(self.body)

    @data.setter
    def data(self, value: bytes) -> None:
        self.body = value

    @property
    def target(self) -> str:
        """A symbolic link's target path; empty for anything else."""
        return self.body if self.file_type == FileType.SYMLINK else ""

    @target.setter
    def target(self, value: str) -> None:
        if self.file_type != FileType.SYMLINK:
            raise InvalidArgument(f"inode {self.number} is not a symbolic link")
        self.body = value

    @property
    def size(self) -> int:
        """Bytes of data (files), entry count (dirs), target length (links)."""
        if self.file_type == FileType.DIRECTORY:
            manifest = self.manifest
            return len(self.entries) + (manifest.count if manifest is not None else 0)
        return len(self.body)

    def stat(self) -> Stat:
        """Immutable metadata snapshot."""
        return Stat(
            inode=self.number,
            file_type=self.file_type,
            size=self.size,
            version=self.version,
            mtime=self.mtime,
            owner=self.owner,
            mode_bits=self.mode_bits,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Inode #{self.number} {self.file_type} size={self.size} v{self.version}>"


class ProvisionedRun:
    """Files linked into one directory one after another at setup, held
    without an inode each: their names (ascending), the consecutive vnode
    numbers from ``first``, their bodies, and the owner and mtime that
    creating them stamped on all of them (a new file's version is 1 and
    its mode 0o644).

    The bodies are those given while the run holds one.  From a second
    :class:`ProvisionedBody` of the first one's stamp on (``compact``),
    they are that stamp and an array of sizes; each body is made on
    demand and kept in ``made``, so every copy of the run hands out one
    object, as copies of built inodes share one body.  ``names``, the
    stamped sizes and ``made`` are shared with the run's copies (a
    clone): each reads only its first ``length`` entries, and only the
    last run of a directory grows.  Bodies as given are the run's own
    list, as a built file's body leaves it for the inode.

    ``after`` places the run in its directory's order: it follows that
    many keys of ``entries``.  ``built`` holds the inodes made so far and
    ``gone`` the positions whose name left the directory (each ``None``
    until it has one).
    """

    __slots__ = ("directory", "names", "first", "length", "stamp", "bodies", "made",
                 "owner", "mtime", "after", "built", "gone")

    def __init__(self, directory: "Inode", name: str, body: Any, first: int,
                 owner: str, mtime: float, after: int):
        self.directory = directory
        self.names: List[str] = [name]
        self.first = first
        self.length = 1
        self.stamp: Optional[bytes] = None
        self.bodies: Any = [body]
        self.made: Optional[Dict[int, ProvisionedBody]] = None
        self.owner = owner
        self.mtime = mtime
        self.after = after
        self.built: Optional[Dict[int, "Inode"]] = None
        self.gone: Optional[Set[int]] = None

    def extend(self, name: str, body: Any, number: int, owner: str, mtime: float,
               compact: bool) -> bool:
        """Append one more file if it continues the run; False if not."""
        length = self.length
        if (number != self.first + length or name <= self.names[-1]
                or owner != self.owner or mtime != self.mtime):
            return False
        stamp = self.stamp
        if stamp is not None:
            if type(body) is not ProvisionedBody or body.stamp != stamp:
                return False
            self.bodies.append(body.size)
        else:
            held = self.bodies[0]
            if (compact and length == 1 and type(body) is ProvisionedBody
                    and type(held) is ProvisionedBody and held.stamp == body.stamp):
                from array import array  # loaded by the first stamped run only
                self.stamp = body.stamp
                self.bodies = array("q", (held.size, body.size))
                self.made = {}
            else:
                self.bodies.append(body)
        self.names.append(name)
        self.length = length + 1
        return True

    def find(self, name: str) -> int:
        """The position of ``name`` if it is still in the directory, else -1."""
        names, length = self.names, self.length
        index = bisect_left(names, name, 0, length)
        if index < length and names[index] == name and not (
                self.gone and index in self.gone):
            return index
        return -1

    def size(self, index: int) -> int:
        """The size of the file at ``index``, its body unbuilt."""
        if self.stamp is not None:
            return self.bodies[index]
        return len(self.bodies[index])

    def body(self, index: int) -> Any:
        """The body of the file at ``index`` (made once, if stamped)."""
        if self.stamp is None:
            return self.bodies[index]
        body = self.made.get(index)
        if body is None:
            body = self.made[index] = ProvisionedBody(self.stamp, self.bodies[index])
        return body

    def inode(self, index: int) -> "Inode":
        """A new inode for the file at ``index`` as its creation left it,
        not kept: what a whole-volume reader looks at."""
        node = Inode(self.first + index, FileType.FILE, self.owner, self.mtime)
        node.body = self.body(index)
        node.parent = self.directory.number
        return node

    def node(self, index: int) -> "Inode":
        """The inode of the file at ``index``, built the first time and kept."""
        built = self.built
        if built is None:
            built = self.built = {}
        node = built.get(index)
        if node is None:
            node = built[index] = self.inode(index)
            if self.stamp is None:
                self.bodies[index] = None  # the inode holds it; a store replaces it there
        return node

    def peek(self, number: int) -> Optional["Inode"]:
        """The inode already built for vnode ``number``, if any."""
        built = self.built
        return built.get(number - self.first) if built else None

    def live(self) -> Iterator[Tuple[str, Optional["Inode"], "ProvisionedRun", int]]:
        """``(name, inode or None, self, position)`` of every name still here."""
        names, built, gone = self.names, self.built, self.gone
        for index in range(self.length):
            if gone and index in gone:
                continue
            yield names[index], built.get(index) if built else None, self, index

    def name_of(self, number: int) -> Optional[str]:
        """The name that vnode ``number`` has in this run, if it has one."""
        gone, built = self.gone, self.built
        index = number - self.first
        if 0 <= index < self.length and not (gone and index in gone):
            node = built.get(index) if built else None
            if node is None or node.number == number:
                return self.names[index]
        for index, node in (built or {}).items():  # a rename replaced a file
            if node.number == number and not (gone and index in gone):
                return self.names[index]
        return None

    def copy(self, directory: "Inode", copy_inode: Callable[["Inode"], "Inode"]
             ) -> "ProvisionedRun":
        """This run for a copy of its directory, its built inodes copied."""
        run = ProvisionedRun.__new__(ProvisionedRun)
        for slot in ProvisionedRun.__slots__:
            setattr(run, slot, getattr(self, slot))
        run.directory = directory
        if self.stamp is None:
            run.bodies = self.bodies[:self.length]
        gone = self.gone
        run.built = {index: copy_inode(node) for index, node in self.built.items()
                     if not (gone and index in gone)} if self.built else None
        run.gone = set(gone) if gone else None
        return run


class Manifest:
    """The files of a directory that provisioning linked without an inode
    each, as :class:`ProvisionedRun` records in the order they were
    linked; ``count`` is how many of their names are still there.

    A file gets its inode the first time it is asked for by name
    (:meth:`UnixFileSystem.child`) or by vnode (``VnodeIndex.get``) and
    keeps its place in the directory's order.  Readers of a whole
    directory or volume read the runs and build nothing.
    """

    __slots__ = ("runs", "count")

    def __init__(self):
        self.runs: List[ProvisionedRun] = []
        self.count = 0

    def find(self, name: str) -> Tuple[Optional[ProvisionedRun], int]:
        """The run and position holding ``name``, or ``(None, -1)``."""
        for run in self.runs:
            index = run.find(name)
            if index >= 0:
                return run, index
        return None, -1

    def add(self, directory: "Inode", name: str, body: Any, number: int, owner: str,
            mtime: float, compact: bool) -> ProvisionedRun:
        """Link one file at the end of ``directory``'s order: the last run
        takes it if it continues it, else a new run does."""
        after = len(directory.entries)
        runs = self.runs
        self.count += 1
        if runs:
            run = runs[-1]
            if run.after == after and run.extend(name, body, number, owner, mtime,
                                                 compact):
                return run
        run = ProvisionedRun(directory, name, body, number, owner, mtime, after)
        runs.append(run)
        return run

    def remove(self, run: ProvisionedRun, index: int) -> None:
        """Take the name at ``index`` out of the directory."""
        if run.gone is None:
            run.gone = set()
        run.gone.add(index)
        self.count -= 1

    def key_removed(self, position: int) -> None:
        """The key at ``position`` of the directory's ``entries`` is going:
        the runs after it move up one."""
        for run in self.runs:
            if run.after > position:
                run.after -= 1

    def copy(self, directory: "Inode", copy_inode: Callable[["Inode"], "Inode"]
             ) -> "Manifest":
        """This manifest for a copy of its directory."""
        manifest = Manifest()
        manifest.runs = [run.copy(directory, copy_inode) for run in self.runs]
        manifest.count = self.count
        return manifest


class UnixFileSystem:
    """A hierarchical file system rooted at ``/``.

    ``clock`` supplies mtimes; pass ``lambda: sim.now`` to stamp virtual
    time, or leave the default for timeless unit tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, name: str = ""):
        self._clock = clock or (lambda: 0.0)
        self.name = name
        self._inode_numbers = itertools.count(2)
        self.root = Inode(1, FileType.DIRECTORY)
        self.root.mtime = self._clock()

    # -- resolution -----------------------------------------------------------

    def _step(self, parent: Inode, name: str, full_path: str) -> Inode:
        if parent.file_type != FileType.DIRECTORY:
            raise NotADirectory(full_path)
        if name == "..":
            raise InvalidArgument(f"'..' must be normalized before resolution: {full_path!r}")
        child = parent.entries.get(name)
        if child is None:
            if parent.manifest is not None:
                child = self.child(parent, name)
            if child is None:
                raise FileNotFound(full_path)
        return child

    @staticmethod
    def child(parent: Inode, name: str) -> Optional[Inode]:
        """The entry ``name`` of a directory, or None; a provisioned file
        gets its inode here the first time it is asked for."""
        node = parent.entries.get(name)
        if node is None and parent.manifest is not None:
            run, index = parent.manifest.find(name)
            if run is not None:
                node = run.node(index)
        return node

    @staticmethod
    def children(directory: Inode) -> Iterator[
            Tuple[str, Optional[Inode], Optional[ProvisionedRun], int]]:
        """``(name, inode, run, position)`` for every entry of a directory in
        the order the entries were linked, building nothing: a provisioned
        file without an inode yet comes as ``(name, None, run, position)``,
        every other entry with run ``None``."""
        manifest = directory.manifest
        if manifest is None:
            for name, node in directory.entries.items():
                yield name, node, None, 0
            return
        runs = manifest.runs
        waiting = 0
        for position, (name, node) in enumerate(directory.entries.items()):
            while waiting < len(runs) and runs[waiting].after <= position:
                yield from runs[waiting].live()
                waiting += 1
            yield name, node, None, 0
        for run in runs[waiting:]:
            yield from run.live()

    @staticmethod
    def name_of(parent: Inode, number: int) -> Optional[str]:
        """The name under which a directory holds inode ``number``."""
        for name, node in parent.entries.items():
            if node.number == number:
                return name
        if parent.manifest is not None:
            for run in parent.manifest.runs:
                name = run.name_of(number)
                if name is not None:
                    return name
        return None

    def _unlink_child(self, parent: Inode, name: str) -> None:
        """Take an existing entry out of a directory (no stamping)."""
        entries = parent.entries
        manifest = parent.manifest
        if name in entries:
            if manifest is not None:
                manifest.key_removed(list(entries).index(name))
            del entries[name]
        else:
            manifest.remove(*manifest.find(name))

    def _link_child(self, parent: Inode, name: str, node: Inode) -> None:
        """Link ``node`` as ``name``: in the place of an entry of that name,
        else at the end (no stamping)."""
        manifest = parent.manifest
        if manifest is not None and name not in parent.entries:
            run, index = manifest.find(name)
            if run is not None:
                run.node(index)  # the replaced entry's place
                run.built[index] = node
                return
        parent.entries[sys.intern(name)] = node

    def resolve(self, path: str, follow: bool = True, _hops: int = 0) -> Inode:
        """Resolve ``path`` to an inode, expanding symlinks when ``follow``.

        Symlinks in *intermediate* components are always expanded; ``follow``
        controls only the final component (lstat vs stat semantics).
        """
        if _hops > _MAX_SYMLINK_HOPS:
            raise TooManySymlinks(path)
        path = pathutil.normalize(path)
        node = self.root
        parts = pathutil.components(path)
        for index, part in enumerate(parts):
            node = self._step(node, part, path)
            is_last = index == len(parts) - 1
            if node.file_type == FileType.SYMLINK and (follow or not is_last):
                prefix = "/" + "/".join(parts[:index])
                target = node.target
                if not pathutil.is_abs(target):
                    target = pathutil.join(prefix, target)
                rest = "/".join(parts[index + 1:])
                full = pathutil.join(target, rest) if rest else target
                return self.resolve(pathutil.normalize(full), follow=follow, _hops=_hops + 1)
        return node

    def _resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """The directory inode that should contain ``path``'s last component."""
        path = pathutil.normalize(path)
        parent_path, name = pathutil.split(path)
        if name == "":
            raise InvalidArgument(f"cannot create or remove the root: {path!r}")
        parent = self.resolve(parent_path, follow=True)
        if parent.file_type != FileType.DIRECTORY:
            raise NotADirectory(parent_path)
        return parent, name

    # -- queries ---------------------------------------------------------------

    def exists(self, path: str, follow: bool = True) -> bool:
        """True if ``path`` resolves."""
        try:
            self.resolve(path, follow=follow)
            return True
        except (FileNotFound, NotADirectory, TooManySymlinks):
            return False

    def stat(self, path: str, follow: bool = True) -> Stat:
        """Metadata snapshot of the object at ``path``."""
        return self.resolve(path, follow=follow).stat()

    def listdir(self, path: str) -> List[str]:
        """Sorted entry names of a directory."""
        node = self.resolve(path)
        if node.file_type != FileType.DIRECTORY:
            raise NotADirectory(path)
        return sorted(name for name, _node, _run, _index in self.children(node))

    def readlink(self, path: str) -> str:
        """The target string of a symbolic link."""
        node = self.resolve(path, follow=False)
        if node.file_type != FileType.SYMLINK:
            raise InvalidArgument(f"not a symlink: {path!r}")
        return node.target

    def walk(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first (path, inode) pairs under ``path``, links not followed."""
        node = self.resolve(path, follow=False)
        yield pathutil.normalize(path), node
        if node.file_type == FileType.DIRECTORY:
            for name in sorted(name for name, _node, _run, _index in self.children(node)):
                child_path = pathutil.join(pathutil.normalize(path), name)
                yield from self.walk(child_path)

    # -- mutation -----------------------------------------------------------------

    def _entries_changed(self, *directories: Inode) -> None:
        """Stamp directories whose entries just changed: a new version, the
        time, and no listing (the next one is built from the new entries)."""
        now = self._clock()
        for directory in directories:
            directory.version += 1
            directory.mtime = now
            directory.listing = None

    def _new_inode(self, file_type: str, owner: str) -> Inode:
        return Inode(next(self._inode_numbers), file_type, owner, self._clock())

    def _insert(self, path: str, file_type: str, owner: str, exist_ok: bool = False) -> Inode:
        parent, name = self._resolve_parent(path)
        existing = self.child(parent, name)
        if existing is not None:
            if exist_ok and existing.file_type == file_type:
                return existing
            raise FileExists(path)
        return self.insert_under(parent, name, file_type, owner)

    def insert_under(self, parent: Inode, name: str, file_type: str, owner: str = "root") -> Inode:
        """Link a new, empty inode as ``name`` in a directory the caller has
        already resolved (and in which it knows ``name`` to be free).  The
        name is interned, so the same name in many directories is one
        string."""
        node = self._new_inode(file_type, owner)
        node.parent = parent.number
        parent.entries[sys.intern(name)] = node
        self._entries_changed(parent)
        return node

    def provision_under(self, parent: Inode, name: str, body: Any, owner: str = "root"
                        ) -> ProvisionedRun:
        """Link a new file as the free ``name`` of a directory the caller
        has resolved, as :meth:`insert_under` does but without an inode: it
        joins the directory's :class:`Manifest` holding ``body`` as given
        or, with others of its stamp, by size.  Returns the run holding it,
        the file last."""
        manifest = parent.manifest
        if manifest is None:
            if parent.file_type != FileType.DIRECTORY:
                raise NotADirectory(f"inode {parent.number}")
            manifest = parent.manifest = Manifest()
        run = manifest.add(parent, sys.intern(name), body, next(self._inode_numbers),
                           owner, self._clock(), compact=True)
        self._entries_changed(parent)
        return run

    def create(self, path: str, data: bytes = b"", owner: str = "root") -> Inode:
        """Create a regular file with ``data`` (exclusive)."""
        node = self._insert(path, FileType.FILE, owner)
        node.data = bytes(data)
        return node

    def mkdir(self, path: str, owner: str = "root", exist_ok: bool = False) -> Inode:
        """Create a directory."""
        return self._insert(path, FileType.DIRECTORY, owner, exist_ok=exist_ok)

    def makedirs(self, path: str, owner: str = "root") -> Inode:
        """Create a directory and any missing ancestors."""
        path = pathutil.normalize(path)
        node = self.root
        built = "/"
        for part in pathutil.components(path):
            built = pathutil.join(built, part)
            child = self.child(node, part)
            if child is None:
                child = self.mkdir(built, owner=owner)
            elif child.file_type == FileType.SYMLINK:
                child = self.resolve(built)
            if child.file_type != FileType.DIRECTORY:
                raise NotADirectory(built)
            node = child
        return node

    def symlink(self, path: str, target: str, owner: str = "root") -> Inode:
        """Create a symbolic link at ``path`` pointing to ``target``."""
        node = self._insert(path, FileType.SYMLINK, owner)
        node.target = target
        return node

    def write(self, path: str, data: bytes, create: bool = True, owner: str = "root") -> Inode:
        """Replace the whole contents of a file (whole-file store semantics)."""
        try:
            node = self.resolve(path)
        except FileNotFound:
            if not create:
                raise
            return self.create(path, data, owner=owner)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(path)
        node.data = bytes(data)
        node.version += 1
        node.mtime = self._clock()
        return node

    def read(self, path: str) -> bytes:
        """The whole contents of a file."""
        node = self.resolve(path)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(path)
        return node.data

    def unlink(self, path: str) -> None:
        """Remove a file or symlink."""
        parent, name = self._resolve_parent(path)
        node = self.child(parent, name)
        if node is None:
            raise FileNotFound(path)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(path)
        self._unlink_child(parent, name)
        self._entries_changed(parent)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._resolve_parent(path)
        node = self.child(parent, name)
        if node is None:
            raise FileNotFound(path)
        if node.file_type != FileType.DIRECTORY:
            raise NotADirectory(path)
        if node.size:
            raise DirectoryNotEmpty(path)
        self._unlink_child(parent, name)
        self._entries_changed(parent)

    def rename(self, old: str, new: str) -> None:
        """Move a file or directory; replaces a plain-file target atomically.

        Refuses to move a directory into its own subtree (the classic
        ``EINVAL`` case) and to overwrite a non-empty directory.
        """
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        if new == old:
            return
        if new.startswith(old + "/"):
            raise InvalidArgument(f"cannot move {old!r} into itself")
        old_parent, old_name = self._resolve_parent(old)
        node = self.child(old_parent, old_name)
        if node is None:
            raise FileNotFound(old)
        new_parent, new_name = self._resolve_parent(new)
        target = self.child(new_parent, new_name)
        if target is not None:
            if target.file_type == FileType.DIRECTORY:
                if target.size:
                    raise DirectoryNotEmpty(new)
                if node.file_type != FileType.DIRECTORY:
                    raise IsADirectory(new)
            elif node.file_type == FileType.DIRECTORY:
                raise NotADirectory(new)
        self._unlink_child(old_parent, old_name)
        self._link_child(new_parent, new_name, node)
        node.parent = new_parent.number
        self._entries_changed(old_parent, new_parent)

    def set_mode(self, path: str, mode_bits: int) -> None:
        """Set per-file Unix protection bits (revised design, §5.1)."""
        node = self.resolve(path)
        node.mode_bits = mode_bits & 0o7777
        node.version += 1
        node.mtime = self._clock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UnixFileSystem {self.name or id(self)}>"
