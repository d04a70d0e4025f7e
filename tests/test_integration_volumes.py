"""Integration: volumes — moves, read-only releases, quotas (§3.2, §5.3)."""

import pytest

from repro.errors import NotCustodian, QuotaExceeded
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


class TestVolumeMove:
    def test_move_volume_between_servers(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"before the move"))
        source = campus.server(0)
        target = campus.server(1)
        assert "u-alice" in source.volumes

        run(campus, source.move_volume("u-alice", "server1"))
        assert "u-alice" not in source.volumes
        assert "u-alice" in target.volumes
        # Every server's location replica learned the new custodian.
        for server in campus.servers:
            assert server.location.custodian_of("/usr/alice/f") == "server1"

    def test_data_survives_the_move(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"payload"))
        run(campus, session.mkdir(f"{HOME}/d"))
        run(campus, session.write_file(f"{HOME}/d/g", b"nested"))
        run(campus, campus.server(0).move_volume("u-alice", "server1"))
        fresh = alice_session(campus, "ws1-0")
        assert run(campus, fresh.read_file(f"{HOME}/f")) == b"payload"
        assert run(campus, fresh.read_file(f"{HOME}/d/g")) == b"nested"

    def test_stale_hints_resolved_by_referral(self, mode="revised"):
        """A workstation with a pre-move hint gets NotCustodian and recovers."""
        campus = small_campus(mode=mode, clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        # Venus at ws0-0 now has a hint pointing at server0.
        venus = campus.workstation(0).venus
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == "server0"
        run(campus, campus.server(0).move_volume("u-alice", "server1"))
        # Invalidate the cached copy so the next read must contact Vice.
        venus.cache.invalidate_all()
        assert run(campus, session.read_file(f"{HOME}/f")) == b"v1"
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == "server1"
        # The pathname-only lock calls follow the same rule from a stale hint.
        venus.hints.redirect("/usr/alice", "server0")
        run(campus, session.set_lock(f"{HOME}/f", exclusive=True))
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == "server1"

    def test_stale_hints_resolved_by_referral_in_the_pathname_family(self):
        self.test_stale_hints_resolved_by_referral(mode="prototype")

    def test_writes_work_after_move(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        run(campus, campus.server(0).move_volume("u-alice", "server1"))
        run(campus, session.write_file(f"{HOME}/f", b"v2"))
        assert campus.server(1).volumes["u-alice"].read("/f") == b"v2"

    def test_fid_survives_move(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        fid_before = campus.server(0).volumes["u-alice"].fid_of("/f")
        run(campus, campus.server(0).move_volume("u-alice", "server1"))
        assert campus.server(1).volumes["u-alice"].fid_of("/f") == fid_before


class TestReadOnlyRelease:
    def _campus_with_binaries(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        unix = campus.create_volume("/unix", custodian=0, volume_id="unix")
        campus.populate(
            unix,
            {f"/bin/tool{i}": b"ELF" + bytes([i]) * 500 for i in range(5)},
            owner="alice",  # alice plays release engineer in these tests
        )
        return campus

    def test_release_places_replicas(self):
        campus = self._campus_with_binaries()
        run(campus, campus.server(0).release_readonly("unix", ["server0", "server1"]))
        assert "unix-ro" in campus.server(0).volumes
        assert "unix-ro" in campus.server(1).volumes
        for server in campus.servers:
            entry = server.location.entry_for_volume("unix")
            assert entry.ro_servers == ("server0", "server1")

    def test_reads_served_by_nearest_replica(self):
        campus = self._campus_with_binaries()
        run(campus, campus.server(0).release_readonly("unix", ["server0", "server1"]))
        remote = alice_session(campus, "ws1-0")  # cluster 1
        backbone_before = campus.cross_cluster_bytes()
        data = run(campus, remote.read_file("/vice/unix/bin/tool3"))
        assert data.startswith(b"ELF")
        # Served by server1 in the same cluster: no backbone crossing.
        assert campus.cross_cluster_bytes() == backbone_before

    def test_replica_is_frozen_against_later_writes(self):
        campus = self._campus_with_binaries()
        run(campus, campus.server(0).release_readonly("unix", ["server1"]))
        # A new release lands in the RW volume...
        admin = alice_session(campus, "ws0-0")
        acl = run(campus, admin.get_acl("/vice/unix/bin"))
        acl["positive"]["alice"] = "rwidlak"
        campus.server(0).volumes["unix"].acls[
            campus.server(0).volumes["unix"].resolve("/bin").number
        ].grant("alice", "rwidlak")
        run(campus, admin.write_file("/vice/unix/bin/tool0", b"NEW RELEASE"))
        # ...but the frozen replica still serves the old version.
        assert campus.server(1).volumes["unix-ro"].read("/bin/tool0").startswith(b"ELF")

    def test_cached_replica_copies_never_invalid(self):
        campus = self._campus_with_binaries()
        run(campus, campus.server(0).release_readonly("unix", ["server0", "server1"]))
        remote = alice_session(campus, "ws1-0")
        run(campus, remote.read_file("/vice/unix/bin/tool1"))
        validations_before = campus.workstation("ws1-0").venus.validations
        run(campus, remote.read_file("/vice/unix/bin/tool1"))
        assert campus.workstation("ws1-0").venus.validations == validations_before


class TestQuota:
    def test_quota_enforced_through_the_protocol(self):
        campus = small_campus()
        campus.add_user("bounded", "pw")
        campus.create_volume(
            "/usr/bounded", custodian=0, volume_id="u-bounded",
            owner="bounded", quota_bytes=1000,
        )
        session = campus.login(0, "bounded", "pw")
        run(campus, session.write_file("/vice/usr/bounded/ok", b"x" * 500))
        with pytest.raises(QuotaExceeded):
            run(campus, session.write_file("/vice/usr/bounded/big", b"y" * 900))

    def test_delete_frees_quota(self):
        campus = small_campus()
        campus.add_user("bounded", "pw")
        campus.create_volume(
            "/usr/bounded", custodian=0, volume_id="u-bounded",
            owner="bounded", quota_bytes=1000,
        )
        session = campus.login(0, "bounded", "pw")
        run(campus, session.write_file("/vice/usr/bounded/a", b"x" * 800))
        run(campus, session.unlink("/vice/usr/bounded/a"))
        run(campus, session.write_file("/vice/usr/bounded/b", b"y" * 800))


class TestCustodianReferral:
    def test_wrong_server_refers_to_custodian(self):
        """§3.1: a server asked about a file it does not store responds
        with the identity of the appropriate custodian."""
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        campus.add_user("bob", "bob-pw")
        campus.create_user_volume("bob", cluster=1)
        # Bob logs in at a cluster-0 workstation: his home server hint is
        # server0, but his files live on server1 — referral territory.
        session = campus.login("ws0-0", "bob", "bob-pw")
        run(campus, session.write_file("/vice/usr/bob/f", b"routed"))
        assert campus.server(1).volumes["u-bob"].read("/f") == b"routed"

    def test_exhausted_referrals_surface(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        # Corrupt every replica to point at a server that is not custodian:
        for server in campus.servers:
            server.location.reassign("u-alice", "server1")
        campus.workstation(0).venus.cache.invalidate_all()
        campus.workstation(0).venus.hints.forget("/usr/alice")
        with pytest.raises(NotCustodian):
            run(campus, session.read_file(f"{HOME}/f"))
