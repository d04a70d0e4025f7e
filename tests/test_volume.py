"""Unit tests for volumes: quota, cloning, fids, snapshots, state."""

import pytest

from repro.errors import (
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    QuotaExceeded,
    ReadOnlyFileSystem,
    VolumeOffline,
)
from repro.storage.unixfs import FileType
from repro.vice.ids import make_fid, split_fid
from repro.vice.protection import AccessList
from repro.vice.volume import Volume


@pytest.fixture
def volume():
    vol = Volume("vol1", "test volume", owner="satya")
    vol.mkdir("/docs", owner="satya")
    vol.create_file("/docs/a.txt", b"alpha", owner="satya")
    return vol


class TestFids:
    def test_fid_roundtrip(self):
        fid = make_fid("vol1", 17)
        assert split_fid(fid) == ("vol1", 17)

    def test_malformed_fid(self):
        with pytest.raises(InvalidArgument):
            split_fid("no-dot")
        with pytest.raises(InvalidArgument):
            split_fid("vol1.notanumber")

    def test_volume_id_with_dot_rejected(self):
        with pytest.raises(InvalidArgument):
            Volume("bad.id", "x")

    def test_fid_of_and_vnode_lookup(self, volume):
        fid = volume.fid_of("/docs/a.txt")
        _vid, vnode = split_fid(fid)
        assert volume.inode_by_vnode(vnode).data == b"alpha"

    def test_fid_invariant_across_rename(self, volume):
        fid = volume.fid_of("/docs/a.txt")
        volume.rename("/docs/a.txt", "/docs/b.txt")
        assert volume.fid_of("/docs/b.txt") == fid

    def test_vnode_lookup_after_delete_fails(self, volume):
        _vid, vnode = split_fid(volume.fid_of("/docs/a.txt"))
        volume.unlink("/docs/a.txt")
        with pytest.raises(FileNotFound):
            volume.inode_by_vnode(vnode)

    def test_path_of_walks_parents(self, volume):
        _vid, vnode = split_fid(volume.fid_of("/docs/a.txt"))
        assert volume.path_of(vnode) == "/docs/a.txt"
        assert volume.path_of(volume.fs.root.number) == "/"

    def test_parent_of(self, volume):
        _vid, vnode = split_fid(volume.fid_of("/docs/a.txt"))
        parent = volume.parent_of(vnode)
        assert volume.path_of(parent.number) == "/docs"


class TestQuota:
    def test_quota_enforced_on_create(self):
        vol = Volume("q", "quota", quota_bytes=10)
        vol.create_file("/small", b"12345")
        with pytest.raises(QuotaExceeded):
            vol.create_file("/big", b"123456789")

    def test_quota_counts_growth_not_rewrite(self):
        vol = Volume("q", "quota", quota_bytes=10)
        vol.create_file("/f", b"1234567890")
        vol.write("/f", b"0987654321")  # same size: fine
        with pytest.raises(QuotaExceeded):
            vol.write("/f", b"12345678901")

    def test_delete_releases_quota(self):
        vol = Volume("q", "quota", quota_bytes=10)
        vol.create_file("/f", b"1234567890")
        vol.unlink("/f")
        vol.create_file("/g", b"1234567890")
        assert vol.used_bytes == 10

    def test_used_bytes_tracks_subtree_removal(self):
        vol = Volume("q", "quota")
        vol.mkdir("/d")
        vol.create_file("/d/f", b"xxxx")
        vol.unlink("/d/f")
        vol.rmdir("/d")
        assert vol.used_bytes == 0


class TestState:
    def test_offline_blocks_everything(self, volume):
        volume.take_offline()
        with pytest.raises(VolumeOffline):
            volume.read("/docs/a.txt")
        with pytest.raises(VolumeOffline):
            volume.write("/docs/a.txt", b"x")
        volume.bring_online()
        assert volume.read("/docs/a.txt") == b"alpha"

    def test_read_only_blocks_mutation(self, volume):
        clone = volume.clone("vol1-ro")
        with pytest.raises(ReadOnlyFileSystem):
            clone.write("/docs/a.txt", b"x")
        with pytest.raises(ReadOnlyFileSystem):
            clone.unlink("/docs/a.txt")
        with pytest.raises(ReadOnlyFileSystem):
            clone.mkdir("/new")


class TestClone:
    def test_clone_preserves_content_and_vnodes(self, volume):
        clone = volume.clone("vol1-ro")
        assert clone.read("/docs/a.txt") == b"alpha"
        _vid, vnode = split_fid(volume.fid_of("/docs/a.txt"))
        assert clone.inode_by_vnode(vnode).data == b"alpha"
        assert clone.read_only
        assert clone.cloned_from == "vol1"

    def test_clone_shares_data_copy_on_write(self, volume):
        clone = volume.clone("vol1-ro")
        original = volume.resolve("/docs/a.txt")
        copied = clone.resolve("/docs/a.txt")
        assert original.data is copied.data  # shared until a write

    def test_writes_to_original_do_not_touch_clone(self, volume):
        clone = volume.clone("vol1-ro")
        volume.write("/docs/a.txt", b"changed")
        assert clone.read("/docs/a.txt") == b"alpha"
        assert volume.read("/docs/a.txt") == b"changed"

    def test_clone_copies_acls_independently(self, volume):
        clone = volume.clone("vol1-ro")
        docs = volume.resolve("/docs")
        acl = AccessList.from_dict(volume.acls[docs.number].as_dict())
        acl.grant("howard", "rl")
        volume.set_acl(docs.number, acl)
        assert "howard" not in clone.acls[docs.number].positive

    def test_clone_of_offline_volume_rejected(self, volume):
        volume.take_offline()
        with pytest.raises(VolumeOffline):
            volume.clone("vol1-ro")


class TestACLInheritance:
    def test_new_directory_copies_parent_acl(self, volume):
        docs = volume.resolve("/docs")
        acl = AccessList.from_dict(volume.acls[docs.number].as_dict())
        acl.grant("howard", "rl")
        volume.set_acl(docs.number, acl)
        sub = volume.mkdir("/docs/sub", owner="satya")
        assert volume.acls[sub.number].positive["howard"] == frozenset("rl")

    def test_file_governed_by_directory_acl(self, volume):
        a = volume.resolve("/docs/a.txt")
        docs = volume.resolve("/docs")
        assert volume.acl_for(a) is volume.acls[docs.number]

    def test_default_acl_grants_owner_everything(self):
        vol = Volume("v", "x", owner="satya")
        acl = vol.acls[vol.fs.root.number]
        assert acl.positive["satya"] == frozenset("rwidlak")
        assert acl.positive["system:anyuser"] == frozenset("rl")


class TestSnapshot:
    def test_snapshot_roundtrip(self, volume):
        volume.symlink("/docs/link", "/docs/a.txt", owner="satya")
        restored = Volume.from_snapshot(volume.snapshot())
        assert restored.read("/docs/a.txt") == b"alpha"
        assert restored.fs.readlink("/docs/link") == "/docs/a.txt"
        assert restored.used_bytes == volume.used_bytes
        assert restored.volume_id == "vol1"

    def test_snapshot_preserves_vnode_numbers(self, volume):
        fid = volume.fid_of("/docs/a.txt")
        restored = Volume.from_snapshot(volume.snapshot())
        assert restored.fid_of("/docs/a.txt") == fid

    def test_snapshot_preserves_acls(self, volume):
        docs = volume.resolve("/docs")
        acl = AccessList.from_dict(volume.acls[docs.number].as_dict())
        acl.deny("mallory", "rl")
        volume.set_acl(docs.number, acl)
        restored = Volume.from_snapshot(volume.snapshot())
        restored_docs = restored.resolve("/docs")
        assert restored.acls[restored_docs.number].negative["mallory"] == frozenset("rl")

    def test_restored_volume_allocates_fresh_vnodes(self, volume):
        restored = Volume.from_snapshot(volume.snapshot())
        existing = set(restored._inodes)
        new_node = restored.create_file("/fresh", b"x")
        assert new_node.number not in existing

    def test_write_vnode(self, volume):
        _vid, vnode = split_fid(volume.fid_of("/docs/a.txt"))
        volume.write_vnode(vnode, b"rewritten")
        assert volume.read("/docs/a.txt") == b"rewritten"
        assert volume.used_bytes == len(b"rewritten")

    def test_write_vnode_refuses_a_directory(self):
        # A store by fid names a file; a directory's vnode is refused
        # before anything changes (its entry count is not a byte length).
        vol = Volume("q", "quota")
        vol.mkdir("/d")
        for name in ("a", "b", "c"):
            vol.create_file(f"/d/{name}", b"0123456789")
        d = vol.resolve("/d")
        version, mtime = d.version, d.mtime
        with pytest.raises(IsADirectory):
            vol.write_vnode(d.number, b"")
        assert vol.used_bytes == 30
        assert (d.file_type, d.version, d.mtime) == (FileType.DIRECTORY, version, mtime)
        assert sorted(vol.fs.listdir("/d")) == ["a", "b", "c"]
        assert vol.read("/d/b") == b"0123456789"
