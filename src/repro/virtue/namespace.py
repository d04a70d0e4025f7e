"""The workstation's two-part name space (paper Fig. 3-1 / 3-2).

"From the point of view of each workstation, the space of file names is
partitioned into a Local name space and a Shared name space."  The shared
space is mounted at ``/vice``; local names like ``/bin`` may be symbolic
links into it (``/bin -> /vice/unix/sun/bin``), which is how heterogeneous
workstation types see the right binaries under the same local names.

:class:`Namespace` classifies any workstation path as local or shared,
expanding local symbolic links — including the ones that escape into
``/vice`` — exactly once per component, with loop detection.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import FileNotFound, NotADirectory, TooManySymlinks
from repro.storage import pathutil
from repro.storage.unixfs import FileType, UnixFileSystem

__all__ = ["Namespace", "VICE_MOUNT"]

VICE_MOUNT = "/vice"
_MAX_HOPS = 16


class Namespace:
    """Routes workstation paths to the local root FS or the Vice mount."""

    def __init__(self, local_fs: UnixFileSystem, mount: str = VICE_MOUNT):
        self.local_fs = local_fs
        self.mount = pathutil.normalize(mount)

    def is_shared(self, path: str) -> bool:
        """True when the (already expanded) path lies under the mount."""
        path = pathutil.normalize(path)
        return path == self.mount or path.startswith(self.mount + "/")

    def to_vice(self, path: str) -> str:
        """Strip the mount prefix: workstation path -> Vice path."""
        path = pathutil.normalize(path)
        vice_path = path[len(self.mount):]
        return vice_path or "/"

    def to_workstation(self, vice_path: str) -> str:
        """Prefix a Vice path with the mount: Vice path -> workstation path."""
        vice_path = pathutil.normalize(vice_path)
        if vice_path == "/":
            return self.mount
        return self.mount + vice_path

    def classify(self, path: str) -> Tuple[str, str]:
        """Resolve ``path`` to ``("vice", vice_path)`` or ``("local", path)``.

        Local symbolic links are expanded; a link whose expansion lands under
        the mount reroutes the remainder of the walk into the shared space.
        A missing *final* component stays classifiable (needed for creation).
        """
        path = pathutil.normalize(path)
        for _hop in range(_MAX_HOPS):
            if self.is_shared(path):
                return "vice", self.to_vice(path)
            redirected = self._expand_one_link(path)
            if redirected is None:
                return "local", path
            path = redirected
        raise TooManySymlinks(path)

    def _expand_one_link(self, path: str):
        """The path with its first symlink expanded, or None if link-free."""
        node = self.local_fs.root
        parts = pathutil.components(path)
        walked = "/"
        for index, part in enumerate(parts):
            if node.file_type != FileType.DIRECTORY:
                raise NotADirectory(walked)
            child = self.local_fs.child(node, part)
            is_last = index == len(parts) - 1
            if child is None:
                if is_last:
                    return None  # creatable: parent exists, leaf does not
                raise FileNotFound(path)
            walked = pathutil.join(walked, part)
            if child.file_type == FileType.SYMLINK:
                target = child.target
                if not pathutil.is_abs(target):
                    target = pathutil.join(pathutil.dirname(walked), target)
                rest = "/".join(parts[index + 1:])
                combined = pathutil.join(target, rest) if rest else target
                return pathutil.normalize(combined)
            node = child
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Namespace mount={self.mount}>"
