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
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

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

__all__ = ["FileType", "Inode", "ProvisionedBody", "Stat", "UnixFileSystem"]

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
    (an attempt raises ``TypeError``).  ``parent`` is the number of the
    directory holding the inode (0 for a root or an inode not linked in),
    kept by :class:`UnixFileSystem` on insert and rename.
    """

    __slots__ = ("number", "file_type", "body", "entries", "listing", "parent",
                 "version", "mtime", "owner", "mode_bits")

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
            return len(self.entries)
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
            raise FileNotFound(full_path)
        return child

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
        return sorted(node.entries)

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
            for name in sorted(node.entries):
                child_path = pathutil.join(pathutil.normalize(path), name)
                yield from self.walk(child_path)

    @property
    def total_bytes(self) -> int:
        """Total file-data bytes stored (for cache space and quota checks)."""
        return sum(node.size for _p, node in self.walk("/")
                   if node.file_type == FileType.FILE)

    @property
    def file_count(self) -> int:
        """Number of regular files."""
        return sum(1 for _p, node in self.walk("/") if node.file_type == FileType.FILE)

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
        existing = parent.entries.get(name)
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
            child = node.entries.get(part)
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

    def append(self, path: str, data: bytes) -> Inode:
        """Append to a file (convenience for workload generators)."""
        node = self.resolve(path)
        if node.file_type != FileType.FILE:
            raise IsADirectory(path)
        node.data += bytes(data)
        node.version += 1
        node.mtime = self._clock()
        return node

    def unlink(self, path: str) -> None:
        """Remove a file or symlink."""
        parent, name = self._resolve_parent(path)
        node = parent.entries.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(path)
        del parent.entries[name]
        self._entries_changed(parent)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._resolve_parent(path)
        node = parent.entries.get(name)
        if node is None:
            raise FileNotFound(path)
        if node.file_type != FileType.DIRECTORY:
            raise NotADirectory(path)
        if node.entries:
            raise DirectoryNotEmpty(path)
        del parent.entries[name]
        self._entries_changed(parent)

    def rmtree(self, path: str) -> None:
        """Remove a subtree recursively (administrative convenience)."""
        parent, name = self._resolve_parent(path)
        if name not in parent.entries:
            raise FileNotFound(path)
        del parent.entries[name]
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
        node = old_parent.entries.get(old_name)
        if node is None:
            raise FileNotFound(old)
        new_parent, new_name = self._resolve_parent(new)
        target = new_parent.entries.get(new_name)
        if target is not None:
            if target.file_type == FileType.DIRECTORY:
                if target.entries:
                    raise DirectoryNotEmpty(new)
                if node.file_type != FileType.DIRECTORY:
                    raise IsADirectory(new)
            elif node.file_type == FileType.DIRECTORY:
                raise NotADirectory(new)
        del old_parent.entries[old_name]
        new_parent.entries[sys.intern(new_name)] = node
        node.parent = new_parent.number
        self._entries_changed(old_parent, new_parent)

    def set_mode(self, path: str, mode_bits: int) -> None:
        """Set per-file Unix protection bits (revised design, §5.1)."""
        node = self.resolve(path)
        node.mode_bits = mode_bits & 0o7777
        node.version += 1
        node.mtime = self._clock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UnixFileSystem {self.name or id(self)} files={self.file_count}>"
