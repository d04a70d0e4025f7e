"""Storage substrate: Unix-like file system model and simulated disks."""

from repro.storage.disk import Disk
from repro.storage.unixfs import FileType, Inode, ProvisionedBody, Stat, UnixFileSystem

__all__ = ["Disk", "FileType", "Inode", "ProvisionedBody", "Stat", "UnixFileSystem"]
