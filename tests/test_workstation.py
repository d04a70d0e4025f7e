"""Unit tests for the Virtue workstation syscall surface."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from tests.helpers import alice_session, run, small_campus


@pytest.fixture
def campus():
    return small_campus()


@pytest.fixture
def session(campus):
    return alice_session(campus)


HOME = "/vice/usr/alice"


class TestOpenModes:
    def test_read_missing_fails(self, campus, session):
        with pytest.raises(FileNotFound):
            run(campus, session.open(f"{HOME}/missing", "r"))

    def test_write_creates(self, campus, session):
        fd = run(campus, session.open(f"{HOME}/new", "w"))
        run(campus, session.write(fd, b"content"))
        run(campus, session.close(fd))
        assert run(campus, session.read_file(f"{HOME}/new")) == b"content"

    def test_write_truncates(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"long original"))
        fd = run(campus, session.open(f"{HOME}/f", "w"))
        run(campus, session.write(fd, b"x"))
        run(campus, session.close(fd))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"x"

    def test_append(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"ab"))
        run(campus, session.append_file(f"{HOME}/f", b"cd"))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"abcd"

    def test_read_plus_preserves(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"0123456789"))
        fd = run(campus, session.open(f"{HOME}/f", "r+"))
        session.workstation.seek(fd, 2)
        run(campus, session.write(fd, b"XY"))
        run(campus, session.close(fd))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"01XY456789"

    def test_bad_mode_rejected(self, campus, session):
        with pytest.raises(InvalidArgument):
            run(campus, session.open(f"{HOME}/f", "rw"))

    def test_open_directory_rejected(self, campus, session):
        with pytest.raises(IsADirectory):
            run(campus, session.open(HOME, "r"))

    def test_empty_create_on_close(self, campus, session):
        """Opening w and closing without writing still creates the file."""
        fd = run(campus, session.open(f"{HOME}/empty", "w"))
        run(campus, session.close(fd))
        status = run(campus, session.stat(f"{HOME}/empty"))
        assert status["size"] == 0


class TestReadWriteSemantics:
    def test_sequential_reads_advance_offset(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"abcdef"))
        fd = run(campus, session.open(f"{HOME}/f", "r"))
        assert run(campus, session.read(fd, 2)) == b"ab"
        assert run(campus, session.read(fd, 2)) == b"cd"
        assert run(campus, session.read(fd)) == b"ef"
        assert run(campus, session.read(fd)) == b""
        run(campus, session.close(fd))

    def test_write_beyond_end_zero_fills(self, campus, session):
        fd = run(campus, session.open(f"{HOME}/f", "w"))
        session.workstation.seek(fd, 4)
        run(campus, session.write(fd, b"tail"))
        run(campus, session.close(fd))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"\x00\x00\x00\x00tail"

    def test_read_on_write_only_fd_rejected(self, campus, session):
        fd = run(campus, session.open(f"{HOME}/f", "w"))
        with pytest.raises(BadFileDescriptor):
            run(campus, session.read(fd))
        run(campus, session.close(fd))

    def test_write_on_read_only_fd_rejected(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        fd = run(campus, session.open(f"{HOME}/f", "r"))
        with pytest.raises(BadFileDescriptor):
            run(campus, session.write(fd, b"y"))
        run(campus, session.close(fd))

    def test_read_only_descriptor_sits_on_the_cache_entry(self, campus, session):
        """An ``r`` open shares the cached bytes (a whole read copies
        nothing); writable opens get a private buffer, so the cache entry
        changes only on close."""
        run(campus, session.write_file(f"{HOME}/f", b"0123456789"))
        ws = session.workstation
        entry = ws.venus.cache.lookup("/usr/alice/f")
        cached = entry.data
        fd = run(campus, session.open(f"{HOME}/f", "r"))
        assert ws._fds[fd].buffer is cached
        assert run(campus, session.read(fd, 4)) == b"0123"
        ws.seek(fd, 0)
        assert run(campus, session.read(fd)) is cached  # not even one copy
        run(campus, session.close(fd))
        assert entry.data is cached and cached == b"0123456789"

        for mode, wrote, expected in (("r+", b"AB", b"AB23456789"),
                                      ("a", b"ab", b"AB23456789ab"),
                                      ("w", b"new", b"new")):
            before = entry.data
            fd = run(campus, session.open(f"{HOME}/f", mode))
            assert type(ws._fds[fd].buffer) is bytearray
            run(campus, session.write(fd, wrote))
            if mode == "r+":
                chunk = run(campus, session.read(fd, 3))
                assert chunk == b"234" and type(chunk) is bytes
            assert entry.data is before  # untouched until close
            run(campus, session.close(fd))
            assert run(campus, session.read_file(f"{HOME}/f")) == expected

    def test_reads_and_writes_generate_no_vice_calls(self, campus, session):
        """§3.2: between open and close, Virtue never talks to Vice."""
        run(campus, session.write_file(f"{HOME}/f", b"z" * 1000))
        fd = run(campus, session.open(f"{HOME}/f", "r+"))
        server_calls_before = campus.server(0).node.calls_received.total
        for _ in range(50):
            run(campus, session.read(fd, 10))
            run(campus, session.write(fd, b"q"))
        assert campus.server(0).node.calls_received.total == server_calls_before
        run(campus, session.close(fd))

    def test_clean_close_sends_nothing(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"data"))
        fd = run(campus, session.open(f"{HOME}/f", "r"))
        before = campus.server(0).node.calls_received.total
        run(campus, session.read(fd))
        run(campus, session.close(fd))
        assert campus.server(0).node.calls_received.total == before

    def test_dirty_close_stores_through(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        fd = run(campus, session.open(f"{HOME}/f", "r+"))
        run(campus, session.write(fd, b"v2"))
        before = campus.server(0).call_mix.count("store")
        run(campus, session.close(fd))
        assert campus.server(0).call_mix.count("store") == before + 1

    def test_double_close_rejected(self, campus, session):
        fd = run(campus, session.open(f"{HOME}/f", "w"))
        run(campus, session.close(fd))
        with pytest.raises(BadFileDescriptor):
            run(campus, session.close(fd))

    def test_unknown_fd_rejected(self, campus, session):
        with pytest.raises(BadFileDescriptor):
            run(campus, session.read(999))


class TestLocalFiles:
    def test_local_roundtrip(self, campus, session):
        run(campus, session.write_file("/tmp/scratch", b"temp data"))
        assert run(campus, session.read_file("/tmp/scratch")) == b"temp data"

    def test_local_files_generate_no_vice_traffic(self, campus, session):
        before = campus.server(0).node.calls_received.total
        run(campus, session.write_file("/tmp/obj", b"o" * 10_000))
        run(campus, session.read_file("/tmp/obj"))
        assert campus.server(0).node.calls_received.total == before

    def test_local_stat_and_listdir(self, campus, session):
        run(campus, session.write_file("/tmp/one", b"1"))
        assert "one" in run(campus, session.listdir("/tmp"))
        status = run(campus, session.stat("/tmp/one"))
        assert status["size"] == 1

    def test_local_mkdir_unlink_rename(self, campus, session):
        run(campus, session.mkdir("/tmp/d"))
        run(campus, session.write_file("/tmp/d/f", b"x"))
        run(campus, session.rename("/tmp/d/f", "/tmp/d/g"))
        assert run(campus, session.read_file("/tmp/d/g")) == b"x"
        run(campus, session.unlink("/tmp/d/g"))
        run(campus, session.rmdir("/tmp/d"))
        assert not run(campus, session.exists("/tmp/d"))

    def test_rename_across_boundary_rejected(self, campus, session):
        run(campus, session.write_file("/tmp/f", b"x"))
        with pytest.raises(InvalidArgument):
            run(campus, session.rename("/tmp/f", f"{HOME}/f"))


class TestViceNamespaceOps:
    def test_mkdir_listdir(self, campus, session):
        run(campus, session.mkdir(f"{HOME}/sub"))
        run(campus, session.write_file(f"{HOME}/sub/f", b"x"))
        assert run(campus, session.listdir(f"{HOME}/sub")) == ["f"]

    def test_unlink_removes_everywhere(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        run(campus, session.unlink(f"{HOME}/f"))
        assert not run(campus, session.exists(f"{HOME}/f"))
        # The other workstation agrees.
        other = alice_session(campus, 1)
        assert not run(campus, other.exists(f"{HOME}/f"))

    def test_rename_file(self, campus, session):
        run(campus, session.write_file(f"{HOME}/old", b"v"))
        run(campus, session.rename(f"{HOME}/old", f"{HOME}/new"))
        assert run(campus, session.read_file(f"{HOME}/new")) == b"v"
        assert not run(campus, session.exists(f"{HOME}/old"))

    def test_rename_directory_revised_only(self, campus, session):
        run(campus, session.mkdir(f"{HOME}/d1"))
        run(campus, session.write_file(f"{HOME}/d1/f", b"x"))
        run(campus, session.rename(f"{HOME}/d1", f"{HOME}/d2"))
        assert run(campus, session.read_file(f"{HOME}/d2/f")) == b"x"

    def test_renamed_directorys_old_name_no_longer_opens(self, campus, session):
        run(campus, session.mkdir(f"{HOME}/d"))
        run(campus, session.write_file(f"{HOME}/d/f", b"cached"))
        run(campus, session.mkdir(f"{HOME}/e"))
        run(campus, session.write_file(f"{HOME}/e/stale", b"clobbered"))
        assert run(campus, session.read_file(f"{HOME}/d/f")) == b"cached"
        # Someone else empties /e: our copy of /e/stale is a broken promise.
        run(campus, alice_session(campus, 1).unlink(f"{HOME}/e/stale"))
        venus = session.workstation.venus
        assert venus.cache.lookup("/usr/alice/e/stale") is not None
        fetches = venus.fetches
        run(campus, session.rename(f"{HOME}/d", f"{HOME}/e"))
        # The cached copy moved with its directory: the old name is gone
        # (for open and for stat), the new one is a hit on the same bytes.
        with pytest.raises(FileNotFound):
            run(campus, session.read_file(f"{HOME}/d/f"))
        with pytest.raises(FileNotFound):
            run(campus, session.stat(f"{HOME}/d/f"))
        assert run(campus, session.read_file(f"{HOME}/e/f")) == b"cached"
        assert venus.fetches == fetches
        assert venus.cache.lookup("/usr/alice/e/stale") is None

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: another workstation's cached /d/f survives the"
        " rename of /d — the break on the directory fid leaves the file's"
        " promise standing, and ValidateByFid would answer 'valid' anyway"
        " because fids survive renames; fixing it moves hit ratios"))
    def test_renamed_directorys_old_name_no_longer_opens_elsewhere(self, campus, session):
        other = alice_session(campus, 1)
        run(campus, session.mkdir(f"{HOME}/d"))
        run(campus, session.write_file(f"{HOME}/d/f", b"cached"))
        assert run(campus, other.read_file(f"{HOME}/d/f")) == b"cached"
        run(campus, session.rename(f"{HOME}/d", f"{HOME}/e"))
        with pytest.raises(FileNotFound):
            run(campus, other.read_file(f"{HOME}/d/f"))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: salvage_all() resets the server's client table"
        " after a crash, but nothing tells Venus; ws1 keeps"
        " trusting its promise for v1 and never sees v2"))
    def test_a_promise_held_across_a_server_crash_is_not_trusted(self, campus, session):
        other = alice_session(campus, 1)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        assert run(campus, other.read_file(f"{HOME}/f")) == b"v1"
        server = campus.server(0)
        server.host.crash()
        server.host.recover()
        run(campus, server.salvage_all())
        run(campus, session.write_file(f"{HOME}/f", b"v2"))
        assert run(campus, other.read_file(f"{HOME}/f")) == b"v2"

    def test_vice_symlink_revised(self, campus, session):
        run(campus, session.write_file(f"{HOME}/real", b"target data"))
        run(campus, session.symlink(f"{HOME}/alias", f"{HOME}/real"))
        assert run(campus, session.read_file(f"{HOME}/alias")) == b"target data"

    def test_stat_fields(self, campus, session):
        run(campus, session.write_file(f"{HOME}/f", b"12345"))
        status = run(campus, session.stat(f"{HOME}/f"))
        assert status["size"] == 5
        assert status["type"] == "file"
        assert status["owner"] == "alice"
        assert "r" in status["rights"]

    def test_crash_loses_descriptors(self, campus, session):
        ws = session.workstation
        fd = run(campus, session.open(f"{HOME}/f", "w"))
        ws.crash()
        ws.recover()
        with pytest.raises(BadFileDescriptor):
            run(campus, session.close(fd))
