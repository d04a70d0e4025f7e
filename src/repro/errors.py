"""Exception hierarchy for the ITC DFS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
mistakes.  The subtree mirrors the system decomposition: simulation errors,
file-system errors (deliberately close to Unix errno semantics), Vice protocol
errors, and security errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """A misuse of the discrete-event kernel (double trigger, bad yield...)."""


class NoRoute(SimulationError):
    """No path between two hosts: a partition cut it.  Not a misuse."""


# ---------------------------------------------------------------------------
# File system (Unix substrate and Virtue syscall surface)
# ---------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for file-system errors; carries an errno-like name."""

    errno_name = "EIO"


class FileNotFound(FileSystemError):
    """ENOENT: a path component does not exist."""

    errno_name = "ENOENT"


class FileExists(FileSystemError):
    """EEXIST: target of an exclusive create already exists."""

    errno_name = "EEXIST"


class NotADirectory(FileSystemError):
    """ENOTDIR: a non-final path component is not a directory."""

    errno_name = "ENOTDIR"


class IsADirectory(FileSystemError):
    """EISDIR: a data operation was attempted on a directory."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FileSystemError):
    """ENOTEMPTY: attempt to remove a directory that still has entries."""

    errno_name = "ENOTEMPTY"


class CrossDeviceLink(FileSystemError):
    """EXDEV: rename across volume boundaries is not permitted."""

    errno_name = "EXDEV"


class InvalidArgument(FileSystemError):
    """EINVAL: malformed path or argument."""

    errno_name = "EINVAL"


class TooManySymlinks(FileSystemError):
    """ELOOP: symbolic-link expansion exceeded the traversal limit."""

    errno_name = "ELOOP"


class BadFileDescriptor(FileSystemError):
    """EBADF: operation on a closed or wrong-mode descriptor."""

    errno_name = "EBADF"


class ReadOnlyFileSystem(FileSystemError):
    """EROFS: mutation attempted on a read-only volume or replica."""

    errno_name = "EROFS"


class QuotaExceeded(FileSystemError):
    """EDQUOT: a store would push a volume past its quota."""

    errno_name = "EDQUOT"


class NoSpace(FileSystemError):
    """ENOSPC: the server partition or cache disk is full."""

    errno_name = "ENOSPC"


class DiskError(FileSystemError):
    """EIO: a disk access failed (media error, injected fault)."""

    errno_name = "EIO"


# ---------------------------------------------------------------------------
# Vice protocol
# ---------------------------------------------------------------------------


class ViceError(ReproError):
    """Base class for Vice protocol-level failures."""


class PermissionDenied(ViceError):
    """The caller's CPS does not grant the required rights."""

    errno_name = "EACCES"


class NotCustodian(ViceError):
    """The contacted server is not the custodian; carries a referral.

    Mirrors the paper: "If a server receives a request for a file for which
    it is not the custodian, it will respond with the identity of the
    appropriate custodian."
    """

    def __init__(self, custodian_hint):
        super().__init__(custodian_hint)
        self.custodian_hint = custodian_hint


class VolumeOffline(ViceError):
    """The volume holding the file is offline (e.g. mid-move or salvage)."""


class LockConflict(ViceError):
    """An advisory lock request conflicts with an existing holder."""


class ServerUnavailable(ViceError):
    """The server is down or unreachable; Virtue may retry elsewhere."""


class LeaseExpired(ViceError):
    """A replicated volume's primary lost its write lease.

    Raised by a primary whose heartbeat lease from the replication
    controller has lapsed (it may have been partitioned away and a
    surviving replica promoted in its place).  Venus treats it like
    ``ServerUnavailable``: refresh the location hint and retry at the
    current primary.
    """


class ReplicationError(ViceError):
    """A replicated store could not reach its write quorum."""


# ---------------------------------------------------------------------------
# Security
# ---------------------------------------------------------------------------


class SecurityError(ReproError):
    """Base class for authentication and encryption failures."""


class AuthenticationFailure(SecurityError):
    """The mutual-authentication handshake failed (wrong key, replay...)."""


class NotAuthenticated(SecurityError):
    """An operation requiring an authenticated connection had none."""


class IntegrityError(SecurityError):
    """Decryption or message-integrity verification failed."""


class UnknownPrincipal(SecurityError):
    """A user or group name is absent from the protection database."""
