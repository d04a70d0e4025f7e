"""Unit tests for the replicated location database."""

import pytest

from repro.errors import FileNotFound, InvalidArgument
from repro.vice.location import LocationDatabase


@pytest.fixture
def db():
    database = LocationDatabase()
    database.add("/", "root", "server0")
    database.add("/usr/satya", "u-satya", "server1")
    database.add("/usr/satya/project", "proj", "server2")
    return database


class TestResolve:
    def test_longest_prefix_wins(self, db):
        entry, rest = db.resolve("/usr/satya/project/notes.txt")
        assert entry.volume_id == "proj"
        assert rest == "/notes.txt"

    def test_intermediate_prefix(self, db):
        entry, rest = db.resolve("/usr/satya/thesis.tex")
        assert entry.volume_id == "u-satya"
        assert rest == "/thesis.tex"

    def test_falls_back_to_root(self, db):
        entry, rest = db.resolve("/unix/bin/cc")
        assert entry.volume_id == "root"
        assert rest == "/unix/bin/cc"

    def test_exact_mount_path(self, db):
        entry, rest = db.resolve("/usr/satya")
        assert entry.volume_id == "u-satya"
        assert rest == "/"

    def test_no_entry_at_all(self):
        empty = LocationDatabase()
        with pytest.raises(FileNotFound):
            empty.resolve("/anything")

    def test_custodian_of(self, db):
        assert db.custodian_of("/usr/satya/f") == "server1"

    def test_subtree_basis_keeps_db_small(self, db):
        """Custodianship is per subtree: deep paths add no entries."""
        before = len(db)
        db.resolve("/usr/satya/a/b/c/d/e/f/g")
        assert len(db) == before


class TestMutation:
    def test_duplicate_mount_rejected(self, db):
        with pytest.raises(InvalidArgument):
            db.add("/usr/satya", "other", "server0")

    def test_duplicate_volume_rejected(self, db):
        with pytest.raises(InvalidArgument):
            db.add("/elsewhere", "u-satya", "server0")

    def test_remove(self, db):
        db.remove("/usr/satya/project")
        entry, _rest = db.resolve("/usr/satya/project/x")
        assert entry.volume_id == "u-satya"

    def test_remove_missing(self, db):
        with pytest.raises(FileNotFound):
            db.remove("/nothing")

    def test_reassign_moves_custodian(self, db):
        db.reassign("u-satya", "server9")
        assert db.custodian_of("/usr/satya/f") == "server9"

    def test_reassign_unknown_volume(self, db):
        with pytest.raises(FileNotFound):
            db.reassign("ghost", "server0")

    def test_set_ro_servers(self, db):
        db.set_ro_servers("u-satya", ["server3", "server4"])
        entry, _ = db.resolve("/usr/satya/f")
        assert entry.ro_servers == ("server3", "server4")

    def test_version_increments(self, db):
        before = db.version
        db.reassign("u-satya", "server5")
        assert db.version == before + 1


class TestSnapshot:
    def test_roundtrip(self, db):
        db.set_ro_servers("proj", ["server0"])
        replica = LocationDatabase()
        replica.load_snapshot(db.snapshot())
        assert replica.version == db.version
        assert replica.custodian_of("/usr/satya/project/x") == "server2"
        entry, _ = replica.resolve("/usr/satya/project/x")
        assert entry.ro_servers == ("server0",)

    def test_load_replaces_existing(self, db):
        replica = LocationDatabase()
        replica.add("/stale", "stale", "nowhere")
        replica.load_snapshot(db.snapshot())
        with pytest.raises(FileNotFound):
            replica.entry_for_volume("stale")

    def test_entries_sorted(self, db):
        paths = [entry.mount_path for entry in db.entries()]
        assert paths == sorted(paths)


class TestResolveMemo:
    """resolve() is memoized; the memo must track every DB mutation."""

    def test_resolve_memoized_and_counted(self, db):
        first, rest = db.resolve("/usr/satya/thesis.tex")
        again, rest_again = db.resolve("/usr/satya/thesis.tex")
        assert (again, rest_again) == (first, rest)
        assert db.resolve_misses == 1
        assert db.resolve_hits == 1

    def test_add_deeper_mount_invalidates(self, db):
        entry, _ = db.resolve("/usr/satya/papers/sosp.tex")
        assert entry.volume_id == "u-satya"
        db.add("/usr/satya/papers", "papers", "server0")
        entry, rest = db.resolve("/usr/satya/papers/sosp.tex")
        assert entry.volume_id == "papers"
        assert rest == "/sosp.tex"

    def test_remove_invalidates(self, db):
        entry, _ = db.resolve("/usr/satya/project/notes.txt")
        assert entry.volume_id == "proj"
        db.remove("/usr/satya/project")
        entry, rest = db.resolve("/usr/satya/project/notes.txt")
        assert entry.volume_id == "u-satya"
        assert rest == "/project/notes.txt"

    def test_load_snapshot_invalidates(self, db):
        db.resolve("/usr/satya/thesis.tex")
        other = LocationDatabase()
        other.add("/", "root", "server9")
        db.load_snapshot(other.snapshot())
        entry, _ = db.resolve("/usr/satya/thesis.tex")
        assert entry.volume_id == "root"
        assert entry.custodian == "server9"

    def test_reassign_shows_through_memo(self, db):
        entry, _ = db.resolve("/usr/satya/thesis.tex")
        assert entry.custodian == "server1"
        db.reassign("u-satya", "server7")
        entry, _ = db.resolve("/usr/satya/thesis.tex")
        assert entry.custodian == "server7"
