"""A Virtue workstation: the Unix-flavoured system-call surface.

This is the boundary application programs see.  "Other than performance,
there is no difference between accessing a local file and a file in the
shared name space" — every call below routes through the
:class:`~repro.virtue.namespace.Namespace` and lands either on the local
root file system or on Venus, invisibly to the caller.

File descriptors follow the paper's usage model: ``open`` makes a whole
cached copy available, ``read``/``write`` touch only that copy ("Virtue
does not communicate with Vice in performing these operations"), and
``close`` stores the file back to its custodian when it was modified.

All operations are generators; drive them with
``sim.run_until_complete(sim.process(...))`` or from other processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Union

from repro.errors import (
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from repro.hosts import Host
from repro.net.topology import Network
from repro.sim.kernel import Simulator
from repro.storage.unixfs import FileType, UnixFileSystem
from repro.venus.cache import CacheEntry
from repro.venus.venus import Venus
from repro.virtue.namespace import Namespace

__all__ = ["OpenFile", "Workstation"]

_READ_MODES = {"r", "r+"}
_WRITE_MODES = {"w", "a", "r+"}
_ALL_MODES = _READ_MODES | _WRITE_MODES


@dataclass
class OpenFile:
    """One open descriptor over a local or cached file: a private buffer
    if writable, the cached ``bytes`` itself if opened ``r`` on Vice."""

    kind: str  # "local" | "vice"
    username: str
    path: str  # workstation path as opened
    mode: str
    buffer: Union[bytes, bytearray] = field(default_factory=bytearray)
    offset: int = 0
    dirty: bool = False
    entry: Optional[CacheEntry] = None  # vice only
    local_path: str = ""  # local only

    @property
    def readable(self) -> bool:
        return self.mode in _READ_MODES

    @property
    def writable(self) -> bool:
        return self.mode in _WRITE_MODES


class Workstation:
    """One Virtue workstation attached to Vice."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        segment: str,
        cluster_server: str,
        config,
    ):
        self.sim = sim
        self.name = name
        self.ws_type = "sun"
        self.host = Host(sim, network, name, segment)
        self.local_fs = UnixFileSystem(clock=lambda: sim.now, name=f"local:{name}")
        for directory in ("/tmp", "/vice"):
            self.local_fs.makedirs(directory)
        self.namespace = Namespace(self.local_fs)
        self.venus = Venus(self.host, cluster_server, config)
        self._fds: Dict[int, OpenFile] = {}
        self._next_fd = 3  # honour tradition
        self._costs = self.venus.costs

    # ==================================================================
    # sessions
    # ==================================================================

    def login(self, username: str, secret) -> None:
        """Authenticate a user at this workstation (password or key bytes)."""
        self.venus.login(username, secret)

    def logout(self, username: str) -> None:
        """End a user's session here."""
        self.venus.logout(username)

    # ==================================================================
    # descriptor table
    # ==================================================================

    def _fd_of(self, fd: int) -> OpenFile:
        open_file = self._fds.get(fd)
        if open_file is None:
            raise BadFileDescriptor(f"fd {fd}")
        return open_file

    def _allocate(self, open_file: OpenFile) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = open_file
        return fd

    @property
    def open_descriptors(self) -> int:
        """Number of live descriptors."""
        return len(self._fds)

    # ==================================================================
    # open / read / write / close
    # ==================================================================

    def open(self, username: str, path: str, mode: str = "r") -> Generator[Any, Any, int]:
        """Open a file; returns a descriptor.

        Modes: ``r`` read, ``w`` create/truncate, ``a`` append, ``r+``
        read/write without truncation.
        """
        if mode not in _ALL_MODES:
            raise InvalidArgument(f"unsupported open mode {mode!r}")
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self._open_vice(username, path, resolved, mode))
        return (yield from self._open_local(username, path, resolved, mode))

    def _open_vice(self, username: str, path: str, vice_path: str, mode: str):
        need_data = mode != "w"
        create = mode in ("w", "a")
        entry = yield from self.venus.open_file(
            username, vice_path, need_data=need_data, create=create
        )
        if entry.status.get("type") == FileType.DIRECTORY:
            entry.open_count -= 1
            raise IsADirectory(path)
        # The cache entry may hold an unbuilt body: build it for this open only.
        data = bytes(entry.data) if need_data else b""
        buffer = data if mode == "r" else bytearray(data)
        open_file = OpenFile(
            kind="vice", username=username, path=path, mode=mode,
            buffer=buffer, entry=entry,
        )
        if mode == "a":
            open_file.offset = len(buffer)
        if mode == "w":
            open_file.dirty = True  # truncation is a modification
        return self._allocate(open_file)

    def _open_local(self, username: str, path: str, local_path: str, mode: str):
        yield from self.host.compute(self._costs.open_base_cpu / 2)
        exists = self.local_fs.exists(local_path)
        if not exists:
            if mode == "r" or mode == "r+":
                raise FileNotFound(path)
            self.local_fs.create(local_path, b"", owner=username)
        node = self.local_fs.resolve(local_path)
        if node.file_type == FileType.DIRECTORY:
            raise IsADirectory(path)
        data = b"" if mode == "w" else self.local_fs.read(local_path)
        yield from self.host.disk.access(len(data))
        open_file = OpenFile(
            kind="local", username=username, path=path, mode=mode,
            buffer=bytearray(data), local_path=local_path,
        )
        if mode == "a":
            open_file.offset = len(data)
        if mode == "w" and exists:
            open_file.dirty = True
        return self._allocate(open_file)

    def read(self, fd: int, size: Optional[int] = None) -> Generator[Any, Any, bytes]:
        """Read from the descriptor's cached copy (no Vice traffic)."""
        open_file = self._fd_of(fd)
        if not open_file.readable:
            raise BadFileDescriptor(f"fd {fd} not open for reading")
        if size is None:
            size = len(open_file.buffer) - open_file.offset
        buffer, end = open_file.buffer, open_file.offset + max(0, size)
        # At most one copy per read (none for a whole read-only file: a full
        # slice of ``bytes`` is the object itself; a provisioned body was
        # built once, by the open).
        chunk = (buffer[open_file.offset:end] if isinstance(buffer, bytes)
                 else bytes(memoryview(buffer)[open_file.offset:end]))
        open_file.offset += len(chunk)
        yield from self.host.compute(len(chunk) * self._costs.per_byte_cpu)
        return chunk

    def write(self, fd: int, data: bytes) -> Generator[Any, Any, int]:
        """Write at the descriptor's offset in its cached copy."""
        open_file = self._fd_of(fd)
        if not open_file.writable:
            raise BadFileDescriptor(f"fd {fd} not open for writing")
        end = open_file.offset + len(data)
        if end > len(open_file.buffer):
            open_file.buffer.extend(b"\x00" * (end - len(open_file.buffer)))
        open_file.buffer[open_file.offset:end] = data
        open_file.offset = end
        open_file.dirty = True
        yield from self.host.compute(len(data) * self._costs.per_byte_cpu)
        return len(data)

    def seek(self, fd: int, offset: int) -> int:
        """Position the descriptor (no time charged: a pointer update)."""
        open_file = self._fd_of(fd)
        if offset < 0:
            raise InvalidArgument("negative seek offset")
        open_file.offset = offset
        return offset

    def close(self, fd: int) -> Generator:
        """Close the descriptor; modified Vice files store through."""
        open_file = self._fds.pop(fd, None)
        if open_file is None:
            raise BadFileDescriptor(f"fd {fd}")
        if open_file.kind == "vice":
            new_data = bytes(open_file.buffer) if open_file.dirty else None
            yield from self.venus.close_file(open_file.username, open_file.entry, new_data)
        else:
            yield from self.host.compute(self._costs.close_base_cpu / 2)
            if open_file.dirty:
                yield from self.host.disk.access(len(open_file.buffer), write=True)
                self.local_fs.write(
                    open_file.local_path, bytes(open_file.buffer), owner=open_file.username
                )

    # ==================================================================
    # whole-file conveniences (what most workloads actually do)
    # ==================================================================

    def read_file(self, username: str, path: str) -> Generator[Any, Any, bytes]:
        """open + read-everything + close."""
        fd = yield from self.open(username, path, "r")
        try:
            data = yield from self.read(fd)
        finally:
            yield from self.close(fd)
        return data

    def write_file(self, username: str, path: str, data: bytes) -> Generator:
        """open(w) + write + close (store-through on the close)."""
        fd = yield from self.open(username, path, "w")
        try:
            yield from self.write(fd, data)
        finally:
            yield from self.close(fd)

    def append_file(self, username: str, path: str, data: bytes) -> Generator:
        """open(a) + write + close."""
        fd = yield from self.open(username, path, "a")
        try:
            yield from self.write(fd, data)
        finally:
            yield from self.close(fd)

    # ==================================================================
    # metadata and name-space calls
    # ==================================================================

    def stat(self, username: str, path: str) -> Generator[Any, Any, Dict]:
        """Status of any file, local or shared."""
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self.venus.stat(username, resolved))
        yield from self.host.compute(self._costs.lookup_cpu / 2)
        st = self.local_fs.stat(resolved)
        return {
            "fid": f"local:{self.name}:{st.inode}",
            "type": st.file_type,
            "size": st.size,
            "version": st.version,
            "mtime": st.mtime,
            "owner": st.owner,
            "mode": st.mode_bits,
            "rights": "rwidlak",
            "read_only": False,
        }

    def listdir(self, username: str, path: str) -> Generator[Any, Any, List[str]]:
        """Directory entries, local or shared."""
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self.venus.listdir(username, resolved))
        yield from self.host.compute(self._costs.lookup_cpu / 2)
        return self.local_fs.listdir(resolved)

    def exists(self, username: str, path: str) -> Generator[Any, Any, bool]:
        """True when the path resolves (local or shared)."""
        try:
            yield from self.stat(username, path)
            return True
        except FileNotFound:
            return False

    def mkdir(self, username: str, path: str) -> Generator:
        """Create a directory."""
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self.venus.mkdir(username, resolved))
        yield from self.host.compute(self._costs.lookup_cpu)
        self.local_fs.mkdir(resolved, owner=username)

    def unlink(self, username: str, path: str) -> Generator:
        """Remove a file or symlink."""
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self.venus.remove(username, resolved))
        yield from self.host.compute(self._costs.lookup_cpu)
        self.local_fs.unlink(resolved)

    def rmdir(self, username: str, path: str) -> Generator:
        """Remove an empty directory."""
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            return (yield from self.venus.rmdir(username, resolved))
        yield from self.host.compute(self._costs.lookup_cpu)
        self.local_fs.rmdir(resolved)

    def rename(self, username: str, old: str, new: str) -> Generator:
        """Rename; both names must live in the same name space."""
        old_kind, old_resolved = self.namespace.classify(old)
        new_kind, new_resolved = self.namespace.classify(new)
        if old_kind != new_kind:
            raise InvalidArgument("rename cannot cross the local/shared boundary")
        if old_kind == "vice":
            return (yield from self.venus.rename(username, old_resolved, new_resolved))
        yield from self.host.compute(self._costs.lookup_cpu)
        self.local_fs.rename(old_resolved, new_resolved)

    def symlink(self, username: str, path: str, target: str) -> Generator:
        """Create a symlink.

        A *local* symlink may point anywhere, including into ``/vice`` —
        that is the Fig. 3-2 heterogeneity mechanism and works in both
        modes.  A symlink *inside* Vice requires the revised servers (§5.1).
        """
        kind, resolved = self.namespace.classify(path)
        if kind == "vice":
            vice_target = target
            if self.namespace.is_shared(target):
                vice_target = self.namespace.to_vice(target)
            return (yield from self.venus.symlink(username, resolved, vice_target))
        yield from self.host.compute(self._costs.lookup_cpu)
        self.local_fs.symlink(resolved, target, owner=username)

    # ==================================================================
    # protection and locks (shared space only)
    # ==================================================================

    def _require_vice(self, path: str) -> str:
        kind, resolved = self.namespace.classify(path)
        if kind != "vice":
            raise InvalidArgument(f"{path!r} is not in the shared name space")
        return resolved

    def get_acl(self, username: str, path: str) -> Generator:
        """Read the access list of a shared directory."""
        return (yield from self.venus.get_acl(username, self._require_vice(path)))

    def set_acl(self, username: str, path: str, acl_record: Dict) -> Generator:
        """Replace the access list of a shared directory."""
        return (yield from self.venus.set_acl(username, self._require_vice(path), acl_record))

    def set_lock(self, username: str, path: str, exclusive: bool = False) -> Generator:
        """Take an advisory lock on a shared file."""
        return (yield from self.venus.set_lock(username, self._require_vice(path), exclusive))

    def release_lock(self, username: str, path: str) -> Generator:
        """Release an advisory lock on a shared file."""
        return (yield from self.venus.release_lock(username, self._require_vice(path)))

    # ==================================================================
    # failure injection
    # ==================================================================

    def crash(self) -> None:
        """Power-cycle the workstation: open descriptors and dirty data die."""
        self.host.crash()
        self._fds.clear()

    def recover(self) -> None:
        """Boot after a crash; all callback promises are void (revalidate)."""
        self.host.recover()
        self.venus.invalidate_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workstation {self.name} type={self.ws_type}>"
