"""Property-based tests: the Unix file system against a flat-dict oracle.

A random sequence of create/write/unlink/mkdir/rename operations is applied
both to :class:`UnixFileSystem` and to a trivially correct model (a dict of
path -> contents); afterwards the two must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import FileSystemError, ReproError
from repro.storage.unixfs import FileType, UnixFileSystem

names = st.sampled_from(["a", "b", "c", "dir1", "dir2", "f.txt", "x"])
segments = st.lists(names, min_size=1, max_size=3)
contents = st.binary(max_size=64)


def to_path(parts):
    return "/" + "/".join(parts)


class FileSystemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fs = UnixFileSystem()
        self.model_files = {}  # path -> bytes
        self.model_dirs = {"/"}

    def _parent_ok(self, parts):
        return to_path(parts[:-1]) in self.model_dirs if len(parts) > 1 else True

    @rule(parts=segments, data=contents)
    def create_file(self, parts, data):
        path = to_path(parts)
        try:
            self.fs.create(path, data)
            created = True
        except ReproError:
            created = False
        should = (
            self._parent_ok(parts)
            and path not in self.model_files
            and path not in self.model_dirs
            and not any(d.startswith(path + "/") for d in self.model_dirs)
        )
        assert created == should
        if created:
            self.model_files[path] = data

    @rule(parts=segments)
    def make_dir(self, parts):
        path = to_path(parts)
        try:
            self.fs.mkdir(path)
            made = True
        except ReproError:
            made = False
        if made:
            self.model_dirs.add(path)
            assert path not in self.model_files

    @rule(parts=segments, data=contents)
    def overwrite(self, parts, data):
        path = to_path(parts)
        if path in self.model_files:
            self.fs.write(path, data)
            self.model_files[path] = data

    @rule(parts=segments)
    def unlink(self, parts):
        path = to_path(parts)
        try:
            self.fs.unlink(path)
            removed = True
        except ReproError:
            removed = False
        assert removed == (path in self.model_files)
        self.model_files.pop(path, None)

    @rule(src=segments, dst=segments)
    def rename_file(self, src, dst):
        old, new = to_path(src), to_path(dst)
        if old not in self.model_files or old == new:
            return
        try:
            self.fs.rename(old, new)
            moved = True
        except ReproError:
            moved = False
        if moved:
            data = self.model_files.pop(old)
            # rename may replace an existing file
            self.model_files[new] = data

    @invariant()
    def model_agrees(self):
        # Every model file exists with the right bytes.
        for path, data in self.model_files.items():
            assert self.fs.read(path) == data
        # Every model dir exists as a directory.
        for path in self.model_dirs:
            node = self.fs.resolve(path)
            assert node.file_type == FileType.DIRECTORY
        # No extra files beyond the model.
        actual_files = {
            path for path, node in self.fs.walk("/") if node.file_type == FileType.FILE
        }
        assert actual_files == set(self.model_files)

    @invariant()
    def byte_accounting_exact(self):
        stored = sum(node.size for _path, node in self.fs.walk("/")
                     if node.file_type == FileType.FILE)
        assert stored == sum(len(d) for d in self.model_files.values())


TestFileSystemMachine = FileSystemMachine.TestCase
TestFileSystemMachine.settings = settings(max_examples=60, stateful_step_count=30)


@given(st.lists(st.tuples(segments, contents), max_size=20))
def test_versions_strictly_increase_per_file(writes):
    fs = UnixFileSystem()
    seen = {}
    for parts, data in writes:
        path = to_path(parts)
        try:
            node = fs.write(path, data)
        except FileSystemError:
            continue
        if path in seen:
            assert node.version > seen[path]
        seen[path] = node.version
