"""User sessions: a user's view of the system from one workstation.

The paper's mobility story — "if a user places all his files in the shared
name space, he can move to any other workstation attached to Vice and use
it exactly as he would use his own workstation" — is just: make a
:class:`UserSession` at a different workstation and carry on.  The session
binds the username so application-style code reads naturally.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.virtue.workstation import Workstation

__all__ = ["UserSession"]


class UserSession:
    """A logged-in user at one workstation; thin sugar over its syscalls."""

    def __init__(self, workstation: Workstation, username: str, password: Optional[str] = None):
        self.workstation = workstation
        self.username = username
        if password is not None:
            workstation.login(username, password)

    def logout(self) -> None:
        """End the session."""
        self.workstation.logout(self.username)

    def move_to(self, workstation: Workstation, password: str) -> "UserSession":
        """User mobility: walk to another workstation and log in there."""
        self.logout()
        return UserSession(workstation, self.username, password)

    # -- bound syscalls (all generators) ------------------------------------

    def open(self, path: str, mode: str = "r") -> Generator[Any, Any, int]:
        return (yield from self.workstation.open(self.username, path, mode))

    def read(self, fd: int, size: Optional[int] = None) -> Generator[Any, Any, bytes]:
        return (yield from self.workstation.read(fd, size))

    def write(self, fd: int, data: bytes) -> Generator[Any, Any, int]:
        return (yield from self.workstation.write(fd, data))

    def close(self, fd: int) -> Generator:
        return (yield from self.workstation.close(fd))

    def read_file(self, path: str) -> Generator[Any, Any, bytes]:
        return (yield from self.workstation.read_file(self.username, path))

    def write_file(self, path: str, data: bytes) -> Generator:
        return (yield from self.workstation.write_file(self.username, path, data))

    def append_file(self, path: str, data: bytes) -> Generator:
        return (yield from self.workstation.append_file(self.username, path, data))

    def stat(self, path: str) -> Generator[Any, Any, Dict]:
        return (yield from self.workstation.stat(self.username, path))

    def exists(self, path: str) -> Generator[Any, Any, bool]:
        return (yield from self.workstation.exists(self.username, path))

    def listdir(self, path: str) -> Generator[Any, Any, List[str]]:
        return (yield from self.workstation.listdir(self.username, path))

    def mkdir(self, path: str) -> Generator:
        return (yield from self.workstation.mkdir(self.username, path))

    def unlink(self, path: str) -> Generator:
        return (yield from self.workstation.unlink(self.username, path))

    def rmdir(self, path: str) -> Generator:
        return (yield from self.workstation.rmdir(self.username, path))

    def rename(self, old: str, new: str) -> Generator:
        return (yield from self.workstation.rename(self.username, old, new))

    def symlink(self, path: str, target: str) -> Generator:
        return (yield from self.workstation.symlink(self.username, path, target))

    def get_acl(self, path: str) -> Generator:
        return (yield from self.workstation.get_acl(self.username, path))

    def set_acl(self, path: str, acl_record: Dict) -> Generator:
        return (yield from self.workstation.set_acl(self.username, path, acl_record))

    def set_lock(self, path: str, exclusive: bool = False) -> Generator:
        return (yield from self.workstation.set_lock(self.username, path, exclusive))

    def release_lock(self, path: str) -> Generator:
        return (yield from self.workstation.release_lock(self.username, path))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UserSession {self.username}@{self.workstation.name}>"
