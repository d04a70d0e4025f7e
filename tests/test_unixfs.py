"""Unit tests for the in-memory Unix file system."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    TooManySymlinks,
)
from repro.storage.unixfs import FileType, UnixFileSystem


@pytest.fixture
def fs():
    return UnixFileSystem()


class TestCreateAndRead:
    def test_create_and_read(self, fs):
        fs.create("/hello.txt", b"hi")
        assert fs.read("/hello.txt") == b"hi"

    def test_create_exclusive(self, fs):
        fs.create("/x", b"")
        with pytest.raises(FileExists):
            fs.create("/x", b"")

    def test_create_in_missing_dir(self, fs):
        with pytest.raises(FileNotFound):
            fs.create("/no/such/file", b"")

    def test_create_under_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(NotADirectory):
            fs.create("/f/child", b"")

    def test_read_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.read("/missing")

    def test_read_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.read("/d")

    def test_cannot_create_root(self, fs):
        with pytest.raises(InvalidArgument):
            fs.create("/", b"")


class TestWrite:
    def test_write_replaces_whole_contents(self, fs):
        fs.create("/f", b"old contents")
        fs.write("/f", b"new")
        assert fs.read("/f") == b"new"

    def test_write_creates_by_default(self, fs):
        fs.write("/fresh", b"data")
        assert fs.read("/fresh") == b"data"

    def test_write_no_create(self, fs):
        with pytest.raises(FileNotFound):
            fs.write("/fresh", b"data", create=False)

    def test_write_bumps_version(self, fs):
        node = fs.create("/f", b"v1")
        assert node.version == 1
        fs.write("/f", b"v2")
        assert node.version == 2

    def test_write_to_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.write("/d", b"x")


class TestDirectories:
    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/d")
        fs.create("/d/b", b"")
        fs.create("/d/a", b"")
        assert fs.listdir("/d") == ["a", "b"]

    def test_mkdir_exist_ok(self, fs):
        fs.mkdir("/d")
        fs.mkdir("/d", exist_ok=True)
        with pytest.raises(FileExists):
            fs.mkdir("/d")

    def test_makedirs(self, fs):
        fs.makedirs("/a/b/c")
        assert fs.stat("/a/b/c").file_type == FileType.DIRECTORY

    def test_makedirs_through_existing(self, fs):
        fs.mkdir("/a")
        fs.makedirs("/a/b")
        assert fs.exists("/a/b")

    def test_listdir_of_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(NotADirectory):
            fs.listdir("/f")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/d")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_nonempty_rejected(self, fs):
        fs.makedirs("/d/sub")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d")

    def test_rmdir_of_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(NotADirectory):
            fs.rmdir("/f")

    def test_directory_version_bumps_on_entry_change(self, fs):
        fs.mkdir("/d")
        before = fs.stat("/d").version
        fs.create("/d/f", b"")
        assert fs.stat("/d").version == before + 1


class TestUnlink:
    def test_unlink_file(self, fs):
        fs.create("/f", b"")
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_unlink_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.unlink("/f")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")

    def test_unlink_symlink_not_target(self, fs):
        fs.create("/target", b"data")
        fs.symlink("/link", "/target")
        fs.unlink("/link")
        assert fs.exists("/target")
        assert not fs.exists("/link", follow=False)


class TestSymlinks:
    def test_follow_absolute(self, fs):
        fs.create("/real", b"payload")
        fs.symlink("/alias", "/real")
        assert fs.read("/alias") == b"payload"

    def test_follow_relative(self, fs):
        fs.makedirs("/d")
        fs.create("/d/real", b"x")
        fs.symlink("/d/alias", "real")
        assert fs.read("/d/alias") == b"x"

    def test_intermediate_symlink(self, fs):
        fs.makedirs("/data/deep")
        fs.create("/data/deep/f", b"v")
        fs.symlink("/shortcut", "/data/deep")
        assert fs.read("/shortcut/f") == b"v"

    def test_lstat_does_not_follow(self, fs):
        fs.create("/real", b"payload")
        fs.symlink("/alias", "/real")
        assert fs.stat("/alias", follow=False).file_type == FileType.SYMLINK
        assert fs.stat("/alias").file_type == FileType.FILE

    def test_readlink(self, fs):
        fs.symlink("/l", "/somewhere")
        assert fs.readlink("/l") == "/somewhere"

    def test_readlink_of_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(InvalidArgument):
            fs.readlink("/f")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/a", "/b")
        fs.symlink("/b", "/a")
        with pytest.raises(TooManySymlinks):
            fs.read("/a")

    def test_dangling_symlink(self, fs):
        fs.symlink("/l", "/nowhere")
        with pytest.raises(FileNotFound):
            fs.read("/l")
        assert fs.exists("/l", follow=False)
        assert not fs.exists("/l")


class TestRename:
    def test_rename_file(self, fs):
        fs.create("/a", b"data")
        fs.rename("/a", "/b")
        assert fs.read("/b") == b"data"
        assert not fs.exists("/a")

    def test_rename_preserves_inode(self, fs):
        node = fs.create("/a", b"data")
        fs.rename("/a", "/b")
        assert fs.resolve("/b").number == node.number

    def test_rename_directory(self, fs):
        fs.makedirs("/d/sub")
        fs.create("/d/sub/f", b"x")
        fs.rename("/d", "/e")
        assert fs.read("/e/sub/f") == b"x"

    def test_rename_into_own_subtree_rejected(self, fs):
        fs.makedirs("/d/sub")
        with pytest.raises(InvalidArgument):
            fs.rename("/d", "/d/sub/d2")

    def test_rename_replaces_plain_file(self, fs):
        fs.create("/a", b"new")
        fs.create("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read("/b") == b"new"

    def test_rename_over_nonempty_dir_rejected(self, fs):
        fs.mkdir("/a")
        fs.makedirs("/b/inner")
        with pytest.raises(DirectoryNotEmpty):
            fs.rename("/a", "/b")

    def test_rename_dir_over_file_rejected(self, fs):
        fs.mkdir("/d")
        fs.create("/f", b"")
        with pytest.raises(NotADirectory):
            fs.rename("/d", "/f")

    def test_rename_file_over_empty_dir_rejected(self, fs):
        fs.create("/f", b"")
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.rename("/f", "/d")

    def test_rename_missing_source(self, fs):
        with pytest.raises(FileNotFound):
            fs.rename("/a", "/b")

    def test_rename_to_same_path_noop(self, fs):
        fs.create("/a", b"x")
        fs.rename("/a", "/a")
        assert fs.read("/a") == b"x"


class TestStatAndAccounting:
    def test_stat_fields(self, fs):
        fs.create("/f", b"12345", owner="alice")
        st = fs.stat("/f")
        assert st.size == 5
        assert st.owner == "alice"
        assert st.file_type == FileType.FILE
        assert st.version == 1

    def test_mtime_uses_clock(self):
        current = {"t": 100.0}
        fs = UnixFileSystem(clock=lambda: current["t"])
        fs.create("/f", b"")
        assert fs.stat("/f").mtime == 100.0
        current["t"] = 200.0
        fs.write("/f", b"x")
        assert fs.stat("/f").mtime == 200.0

    def test_walk_covers_everything(self, fs):
        fs.makedirs("/a/b")
        fs.create("/a/f", b"")
        fs.symlink("/l", "/a")
        paths = [path for path, _node in fs.walk("/")]
        assert paths == ["/", "/a", "/a/b", "/a/f", "/l"]

    def test_set_mode(self, fs):
        fs.create("/f", b"")
        fs.set_mode("/f", 0o600)
        assert fs.stat("/f").mode_bits == 0o600

    def test_inode_numbers_never_reused(self, fs):
        first = fs.create("/a", b"").number
        fs.unlink("/a")
        second = fs.create("/a", b"").number
        assert second != first


class TestSharedState:
    """Per-file state is sized to what it holds: files share one empty
    entry table, and a name entering a directory is interned."""

    def test_files_and_links_share_one_read_only_entry_table(self, fs):
        one = fs.create("/a", b"x")
        two = fs.create("/b", b"y")
        link = fs.symlink("/l", "/a")
        assert one.entries is two.entries is link.entries
        assert len(one.entries) == 0 and "x" not in one.entries
        assert list(one.entries.items()) == [] and one.entries.get("x") is None
        with pytest.raises(TypeError):
            one.entries["x"] = two
        first, second = fs.mkdir("/d"), fs.mkdir("/e")
        assert first.entries is not second.entries is not one.entries
        fs.create("/d/f", b"")
        assert list(second.entries) == []

    def test_a_name_is_one_string_in_every_directory(self, fs):
        fs.makedirs("/a")
        fs.makedirs("/b")
        fs.create("/a/" + "".join(["sha", "red"]), b"")
        fs.create("/b/" + "".join(["sha", "red"]), b"")
        [left] = fs.resolve("/a").entries
        [right] = fs.resolve("/b").entries
        assert left is right

    def test_rename_interns_the_new_name(self, fs):
        fs.makedirs("/a")
        fs.makedirs("/b")
        fs.create("/a/kept", b"")
        fs.create("/b/moving", b"")
        fs.rename("/b/moving", "/b/" + "".join(["ke", "pt"]))
        [left] = fs.resolve("/a").entries
        [right] = fs.resolve("/b").entries
        assert left is right
