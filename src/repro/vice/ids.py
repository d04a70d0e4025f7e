"""Fixed-length unique file identifiers (fids).

The revised design replaces pathname-based server calls with "fixed-length
unique file identifiers for Vice files" (§5.3): a fid names a file by
``(volume id, vnode number)`` and is invariant across renames, which is what
makes renaming of arbitrary subtrees possible.  Vnode numbers are inode
numbers in the volume's backing file system and are never reused, so no
separate uniquifier is needed in this implementation.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import InvalidArgument

__all__ = ["make_fid", "split_fid"]


def make_fid(volume_id: str, vnode: int) -> str:
    """Compose a fid string from volume id and vnode number."""
    if "." in volume_id:
        raise InvalidArgument(f"volume id may not contain '.': {volume_id!r}")
    return f"{volume_id}.{vnode}"


def split_fid(fid: str) -> Tuple[str, int]:
    """Decompose a fid into ``(volume_id, vnode)``."""
    volume_id, dot, vnode = fid.rpartition(".")
    if not dot or not vnode.isdigit():
        raise InvalidArgument(f"malformed fid {fid!r}")
    return volume_id, int(vnode)
