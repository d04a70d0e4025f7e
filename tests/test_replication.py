"""Tests for read-write volume replication: propagation, heartbeat
failure detection, failover, rejoin and the partition lease fence."""

import dataclasses

import pytest

from repro.errors import FileNotFound, LeaseExpired, ServerUnavailable
from repro.faults import partition_plan
from repro.vice.replication import (
    CONTROLLER_NAME,
    DETECTION_TIME,
    LEASE_DURATION,
    ReplicationConfig,
)
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


def replicated_campus(factor=2, clusters=3, **overrides):
    return small_campus(
        clusters=clusters,
        workstations_per_cluster=1,
        replication=ReplicationConfig(factor=factor),
        **overrides,
    )


def entry_for(campus, volume_id="u-alice"):
    # The authoritative replica: post-failover truth is the controller's.
    return campus.location.entry_for_volume(volume_id)


def settle(campus, seconds):
    campus.run(until=campus.sim.now + seconds)


class TestConfig:
    def test_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicationConfig(factor=0)

    def test_lease_cannot_outlive_detection(self):
        # A lease longer than the detection time would let a partitioned
        # primary accept a write after its successor was promoted.  The
        # detector is constants now, not settable per scheme: the configs
        # carry nothing but their geometry.
        from repro.vice.erasure import ErasureConfig

        assert LEASE_DURATION <= DETECTION_TIME
        assert {f.name for f in dataclasses.fields(ReplicationConfig)} == {"factor"}
        assert {f.name for f in dataclasses.fields(ErasureConfig)} == {
            "data", "parity"}

    def test_unconfigured_campus_builds_nothing(self):
        campus = small_campus()
        assert campus.replication_controller is None
        assert all(server.replication is None for server in campus.servers)
        assert "replicas" not in entry_for(campus).as_dict()


class TestPropagation:
    def test_write_reaches_every_copy(self):
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"everywhere"))
        # The store returns at quorum; the last secondary's apply may
        # still be in flight, so let the propagation tail land.
        settle(campus, 5.0)
        entry = entry_for(campus)
        assert len(entry.replicas) == 3
        for name in entry.replicas:
            copy = campus.server(name).volumes["u-alice"]
            assert copy.read("/f") == b"everywhere"

    def test_replicas_share_vnode_numbers(self):
        # Fids must resolve identically at every replica so Venus caches
        # survive a failover.
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"same fid"))
        settle(campus, 5.0)
        vnodes = {
            campus.server(name).volumes["u-alice"].resolve("/f").number
            for name in entry_for(campus).replicas
        }
        assert len(vnodes) == 1

    def test_secondary_refers_to_primary(self):
        campus = replicated_campus(factor=2)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"via primary"))
        entry = entry_for(campus)
        assert entry.custodian == entry.replicas[0]
        secondary = campus.server(entry.replicas[1]).volumes["u-alice"]
        assert secondary.replica_role == "secondary"

    def test_heartbeats_flow(self):
        campus = replicated_campus(factor=2)
        settle(campus, 30.0)
        controller = campus.replication_controller
        assert controller.heartbeats >= len(campus.servers)
        assert sorted(controller.alive_servers()) == sorted(
            server.host.name for server in campus.servers
        )


class TestFailover:
    def test_crash_promotes_most_up_to_date_survivor(self):
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"before crash"))
        campus.server(0).host.crash()
        settle(campus, 40.0)  # detection is 15s + a monitor tick
        controller = campus.replication_controller
        assert controller.deaths_declared == 1
        assert not controller.alive["server0"]
        entry = entry_for(campus)
        assert entry.custodian != "server0"
        assert "server0" not in entry.replicas

    def test_clients_ride_through_failover(self):
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        campus.server(0).host.crash()
        settle(campus, 40.0)
        # The workstation's location hint still names the dead custodian;
        # the failed call forces a hint refresh against the survivors.
        run(campus, session.write_file(f"{HOME}/f", b"v2"))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"v2"
        assert campus.workstation(0).venus.failovers >= 1

    def test_pathname_call_rides_through_failover(self):
        # Locks are pathname calls even on a revised campus: the same
        # refresh-and-retry rule carries them to the promoted replica.
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        campus.server(0).host.crash()
        settle(campus, 40.0)
        run(campus, session.set_lock(f"{HOME}/f", exclusive=True))
        venus = campus.workstation(0).venus
        assert venus.failovers == 1
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == entry_for(campus).custodian

    def test_stale_hint_on_remote_workstation_retries(self):
        campus = replicated_campus(factor=3)
        local = alice_session(campus)
        run(campus, local.write_file(f"{HOME}/f", b"hinted"))
        remote = campus.login(1, "alice", "alice-pw")
        assert run(campus, remote.read_file(f"{HOME}/f")) == b"hinted"
        campus.server(0).host.crash()
        settle(campus, 40.0)
        # The cached hint still names the dead custodian; the write must
        # fail against it once, refresh the hint, and land on the new one.
        run(campus, remote.write_file(f"{HOME}/f", b"rehinted"))
        assert campus.workstation(1).venus.failovers >= 1
        entry = entry_for(campus)
        copy = campus.server(entry.custodian).volumes["u-alice"]
        assert copy.read("/f") == b"rehinted"

    def test_failover_recorded_for_availability(self):
        campus = replicated_campus(
            factor=2,
            fault_plan=partition_plan("cluster0", at=120.0, outage=120.0),
        )
        settle(campus, 200.0)
        assert campus.availability.counters.get("failovers", 0) >= 1

    def test_rejoin_demotes_and_resyncs(self):
        campus = replicated_campus(factor=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        campus.server(0).host.crash()
        settle(campus, 40.0)
        run(campus, session.write_file(f"{HOME}/f", b"v2"))
        campus.server(0).host.recover()
        settle(campus, 60.0)
        controller = campus.replication_controller
        assert controller.rejoins == 1
        copy = campus.server(0).volumes["u-alice"]
        assert copy.replica_role == "secondary"
        assert copy.read("/f") == b"v2"
        assert "server0" in entry_for(campus).replicas


class TestDivergence:
    def test_crash_mid_propagation_discards_divergent_writes(self):
        # A primary that applied a write locally but crashed before any
        # secondary acknowledged it: the survivors elect a copy without
        # that write, and the rejoining ex-primary must discard it.
        campus = small_campus(
            clusters=2, workstations_per_cluster=1,
            replication=ReplicationConfig(factor=2),
        )
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"base"))
        primary = campus.volume("u-alice")
        # The un-propagated write: applied and versioned at the primary
        # only, exactly what a crash mid-propagation leaves behind.
        primary.bump_version_vector("server0")
        primary.create_file("/orphan", b"never propagated", owner="alice")
        campus.server(0).host.crash()
        settle(campus, 40.0)
        assert entry_for(campus).custodian == "server1"
        remote = campus.login(1, "alice", "alice-pw")
        run(campus, remote.write_file(f"{HOME}/f", b"after failover"))
        campus.server(0).host.recover()
        settle(campus, 60.0)
        rejoined = campus.server(0).volumes["u-alice"]
        assert rejoined.replica_role == "secondary"
        assert rejoined.read("/f") == b"after failover"
        with pytest.raises(FileNotFound):
            rejoined.read("/orphan")
        assert campus.server(0).replication.divergent_discarded >= 1


class TestPartition:
    def test_partitioned_primary_fences_writes(self):
        # cluster0 is cut off: workstations inside can still reach their
        # server, but its lease lapses, so writes fence with LeaseExpired
        # instead of diverging from the promoted replica outside.
        campus = replicated_campus(
            factor=3,
            fault_plan=partition_plan("cluster0", at=300.0, outage=300.0),
        )
        inside = alice_session(campus)
        outside = campus.login(1, "alice", "alice-pw")
        run(campus, inside.write_file(f"{HOME}/f", b"connected"))
        campus.run(until=360.0)  # partition at 300, detection by ~320
        entry = entry_for(campus)
        assert entry.custodian != "server0"
        with pytest.raises((LeaseExpired, ServerUnavailable)):
            run(campus, inside.write_file(f"{HOME}/f", b"split brain?"))
        run(campus, outside.write_file(f"{HOME}/f", b"majority side"))
        campus.run(until=700.0)  # heal at 600, rejoin settles
        assert run(campus, inside.read_file(f"{HOME}/f")) == b"majority side"
