"""Integration: failures — server crashes, partitions, workstation crashes.

The availability goal (§2.2): "single point network or machine failures
should not affect the entire user community; we are willing to accept
temporary loss of service to small groups of users."
"""

import pytest

from repro.errors import ReproError, ServerUnavailable
from repro.faults import Fault, FaultPlan
from repro.net.link import LinkFaults
from repro.rpc.costs import RpcCosts
from repro.sim import WorkloadRandom
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"

FAST_TIMEOUTS = RpcCosts(retransmit_timeout=0.5, max_retries=1)


def impatient_campus(**overrides):
    return small_campus(rpc_costs=FAST_TIMEOUTS, **overrides)


class TestServerCrash:
    def test_crashed_server_loses_its_users_only(self):
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)
        campus.add_user("bob", "bob-pw")
        campus.create_user_volume("bob", cluster=1)
        alice = alice_session(campus, "ws0-0")
        bob = campus.login("ws1-0", "bob", "bob-pw")
        run(campus, alice.write_file(f"{HOME}/f", b"a"))
        run(campus, bob.write_file("/vice/usr/bob/f", b"b"))

        campus.server(0).host.crash()
        campus.workstation("ws0-0").venus.cache.invalidate_all()
        with pytest.raises(ServerUnavailable):
            run(campus, alice.read_file(f"{HOME}/f"))
        # Bob, on the other cluster, is untouched.
        assert run(campus, bob.read_file("/vice/usr/bob/f")) == b"b"

    def test_cached_files_survive_server_outage(self):
        """Whole-file caching gives a modicum of availability: files already
        cached remain readable while the custodian is down (callback mode
        trusts them until broken)."""
        campus = impatient_campus()
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"cached copy"))
        run(campus, session.read_file(f"{HOME}/f"))
        campus.server(0).host.crash()
        assert run(campus, session.read_file(f"{HOME}/f")) == b"cached copy"

    def test_server_recovery_restores_service(self):
        campus = impatient_campus()
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        campus.server(0).host.crash()
        campus.workstation(0).venus.cache.invalidate_all()
        with pytest.raises(ServerUnavailable):
            run(campus, session.read_file(f"{HOME}/f"))
        campus.server(0).host.recover()
        assert run(campus, session.read_file(f"{HOME}/f")) == b"v1"

    def test_store_during_outage_fails_cleanly(self):
        campus = impatient_campus()
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        campus.server(0).host.crash()
        with pytest.raises(ServerUnavailable):
            run(campus, session.write_file(f"{HOME}/f", b"v2"))
        campus.server(0).host.recover()
        # The old version is intact on the server.
        assert campus.server(0).volumes["u-alice"].read("/f") == b"v1"


class TestPartition:
    def test_partitioned_cluster_cut_off(self):
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, "ws1-0")  # other cluster than server0
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        campus.network.partition("cluster1")
        campus.workstation("ws1-0").venus.cache.invalidate_all()
        with pytest.raises(Exception):
            run(campus, session.read_file(f"{HOME}/f"))
        campus.network.heal("cluster1")
        assert run(campus, session.read_file(f"{HOME}/f")) == b"x"

    def test_reply_cut_off_mid_call_is_a_lost_datagram(self):
        # The bridge fails while server0 is serving a store from the other
        # cluster.  The finished call has no route back: that is a reply
        # lost in flight (the client times out), not a server process dying
        # with nobody above it to hear — which used to end the whole run.
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)
        session = alice_session(campus, "ws1-0")
        run(campus, session.write_file(f"{HOME}/f", b"v1"))
        server = campus.server(0)
        serving = server.node.calls_received.count("StoreByFid")
        store = campus.sim.process(session.write_file(f"{HOME}/f", b"v2" * 50_000))
        while server.node.calls_received.count("StoreByFid") == serving:
            campus.sim.step()
        campus.network.partition("cluster0")
        # The client's own retransmission finds the route gone; the error is
        # its call's, not a server process's surfacing through the kernel.
        with pytest.raises(ReproError, match="from ws1-0"):
            campus.sim.run_until_complete(store)
        campus.run(until=campus.sim.now + 60.0)
        assert server.node.replies_unroutable == 1
        assert campus.metrics.value("rpc.server0.replies_unroutable")["value"] == 1
        assert server.volumes["u-alice"].read("/f") == b"v2" * 50_000

    def test_intra_cluster_unaffected_by_partition(self):
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)
        local = alice_session(campus, "ws0-0")
        campus.network.partition("cluster1")
        run(campus, local.write_file(f"{HOME}/f", b"still fine"))
        assert run(campus, local.read_file(f"{HOME}/f")) == b"still fine"


class TestWorkstationCrash:
    def test_dirty_data_lost_but_server_consistent(self):
        """Store-on-close means a crash loses at most the open files'
        changes — the rationale for write-through (§3.2)."""
        campus = impatient_campus()
        session = alice_session(campus, 0)
        run(campus, session.write_file(f"{HOME}/f", b"committed"))
        ws = campus.workstation(0)
        fd = run(campus, session.open(f"{HOME}/f", "r+"))
        run(campus, session.write(fd, b"UNCOMMITTED"))
        ws.crash()  # before close: the write never reached Vice
        ws.recover()
        assert campus.server(0).volumes["u-alice"].read("/f") == b"committed"
        assert run(campus, session.read_file(f"{HOME}/f")) == b"committed"

    def test_recovered_workstation_revalidates(self):
        campus = impatient_campus(workstations_per_cluster=2)
        crasher = alice_session(campus, 0)
        other = alice_session(campus, 1)
        run(campus, crasher.read_file.__self__.write_file(f"{HOME}/f", b"v1"))
        run(campus, crasher.read_file(f"{HOME}/f"))
        ws = campus.workstation(0)
        ws.crash()
        # While ws0 is dark, the file changes; its callback break is lost.
        run(campus, other.write_file(f"{HOME}/f", b"v2"))
        ws.recover()  # recovery invalidates all cached entries
        assert run(campus, crasher.read_file(f"{HOME}/f")) == b"v2"

    def test_break_to_dead_workstation_does_not_block_store(self):
        campus = impatient_campus(workstations_per_cluster=2)
        holder = alice_session(campus, 0)
        writer = alice_session(campus, 1)
        run(campus, writer.write_file(f"{HOME}/f", b"v1"))
        run(campus, holder.read_file(f"{HOME}/f"))  # holder takes a callback
        campus.workstation(0).host.crash()
        # The store must complete despite the unreachable callback holder.
        run(campus, writer.write_file(f"{HOME}/f", b"v2"))
        assert campus.server(0).volumes["u-alice"].read("/f") == b"v2"


class TestLossyNetwork:
    def test_whole_stack_survives_packet_loss(self):
        lossy = RpcCosts(retransmit_timeout=0.5, max_retries=8)
        campus = small_campus(rpc_costs=lossy)
        campus.network.install_link_faults(
            "cluster0", LinkFaults(WorkloadRandom(3), loss=0.15))
        session = alice_session(campus, 0)
        for index in range(5):
            run(campus, session.write_file(f"{HOME}/f{index}", b"data%d" % index))
        for index in range(5):
            assert run(campus, session.read_file(f"{HOME}/f{index}")) == b"data%d" % index
        assert campus.network.segments["cluster0"].faults.stats["link_lost"] > 0


class TestFaultPlanScenarios:
    """The repro.faults scheduler reproduces the hand-rolled failure stories.

    Same observable sequence whether the partition/crash is injected by a
    declarative :class:`FaultPlan` window or by calling
    ``network.partition``/``host.crash`` directly from a process — the
    scheduler is sugar over the same primitives, not a new failure model.
    """

    def _partition_story(self, campus):
        """Write before the window, fail inside it, read back after heal."""
        session = alice_session(campus, "ws1-0")  # other cluster than server0
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        campus.sim.run(until=120.0)  # inside the partition window
        assert "cluster1" in campus.network.partitioned
        campus.workstation("ws1-0").venus.cache.invalidate_all()
        with pytest.raises(Exception):
            run(campus, session.read_file(f"{HOME}/f"))
        campus.sim.run(until=250.0)  # healed
        assert not campus.network.partitioned
        return run(campus, session.read_file(f"{HOME}/f"))

    def test_bridge_partition_then_heal_via_plan(self):
        plan = FaultPlan(name="bridge-outage", faults=(
            Fault("partition", "cluster1", start=100.0, duration=100.0),
        ))
        campus = impatient_campus(clusters=2, workstations_per_cluster=1,
                                  fault_plan=plan)
        assert self._partition_story(campus) == b"x"
        tracker = campus.availability
        assert tracker.counters["faults_injected"] == 1
        assert tracker.counters["recoveries"] == 1

    def test_bridge_partition_then_heal_hand_rolled_parity(self):
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)

        def orchestrate():
            yield campus.sim.timeout(100.0)
            campus.network.partition("cluster1")
            yield campus.sim.timeout(100.0)
            campus.network.heal("cluster1")

        campus.sim.process(orchestrate(), name="manual-faults")
        assert self._partition_story(campus) == b"x"

    def test_double_fault_server_crash_during_partition(self):
        """A crash inside a partition window: the stranded cluster keeps
        serving its own users, the crashed custodian's users wait for both
        reverts, and the tracker sees two faults and one salvage."""
        plan = FaultPlan(name="double-fault", faults=(
            Fault("partition", "cluster1", start=100.0, duration=150.0),
            Fault("server_crash", "server0", start=120.0, duration=60.0),
        ))
        campus = impatient_campus(clusters=2, workstations_per_cluster=1,
                                  fault_plan=plan)
        campus.add_user("bob", "bob-pw")
        campus.create_user_volume("bob", cluster=1)
        alice = alice_session(campus, "ws0-0")
        bob = campus.login("ws1-0", "bob", "bob-pw")
        run(campus, alice.write_file(f"{HOME}/f", b"v1"))
        run(campus, bob.write_file("/vice/usr/bob/f", b"b1"))

        campus.sim.run(until=130.0)  # both faults live
        assert len(campus.fault_scheduler.active) == 2
        campus.workstation("ws0-0").venus.cache.invalidate_all()
        with pytest.raises(ServerUnavailable):
            run(campus, alice.read_file(f"{HOME}/f"))
        # Bob's whole world is inside the partitioned cluster: untouched.
        assert run(campus, bob.read_file("/vice/usr/bob/f")) == b"b1"

        campus.sim.run(until=300.0)  # crash reverted, partition healed
        assert not campus.fault_scheduler.active
        assert run(campus, alice.read_file(f"{HOME}/f")) == b"v1"
        tracker = campus.availability
        assert tracker.counters["faults_injected"] == 2
        assert tracker.counters["recoveries"] == 2
        assert tracker.counters["salvages"] == 1


class TestPartitionedClusterAutonomy:
    def test_cut_off_cluster_keeps_serving_its_own_users(self):
        """Clusters are "semi-autonomous" (§2.3): a backbone-bridge failure
        strands a cluster but its users and their cluster server carry on."""
        campus = impatient_campus(clusters=2, workstations_per_cluster=1)
        campus.add_user("bob", "bob-pw")
        campus.create_user_volume("bob", cluster=1)
        bob = campus.login("ws1-0", "bob", "bob-pw")
        run(campus, bob.write_file("/vice/usr/bob/f", b"local work"))

        campus.network.partition("cluster1")
        # bob's whole world is inside cluster1: nothing changes for him.
        run(campus, bob.write_file("/vice/usr/bob/g", b"still working"))
        assert run(campus, bob.read_file("/vice/usr/bob/g")) == b"still working"
        # But alice's files (cluster 0 custodian) are unreachable from there.
        campus.workstation("ws1-0").venus.login("alice", "alice-pw")
        alice_away = campus.login("ws1-0", "alice", "alice-pw")
        with pytest.raises(Exception):
            run(campus, alice_away.read_file(f"{HOME}/anything"))
