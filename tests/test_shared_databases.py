"""One copy of each replicated database per version, not per server.

Servers holding the same version of the location or protection database
point at one shared state; a server's first local write copies it, and a
server sees another's change only when that change's ``SyncLocation`` /
``SyncProtection`` reaches it — the paper's replication lag, kept.  These
tests pin all three halves: isolation (no local write leaks), lag (a
missed broadcast stays missed until the next sync), and sharing (one
state, one member -> groups index, one copy's worth of heap).
"""

import gc
import inspect
import tracemalloc

import pytest

from repro.crypto import derive_user_key
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.vice.erasure import ErasureConfig
from repro.vice.location import LocationDatabase
from repro.vice.protection import AccessList, ProtectionDatabase, ProtectionState
from repro.vice.protserver import manual_update
from repro.vice.replication import ReplicationConfig
from repro.workload import provision_campus
from tests.helpers import prot_call, protserver_campus, run, small_campus


def settle(campus, seconds):
    campus.run(until=campus.sim.now + seconds)


def spy_arrivals(server, procedure, probe):
    """Record ``probe()`` each time ``procedure`` reaches ``server``, just
    before its handler installs anything."""
    seen = []
    handler = server.node.services[procedure]

    def spy(conn, args, payload):
        seen.append(probe())
        return (yield from handler(conn, args, payload))

    server.node.services[procedure] = spy
    return seen


# ----------------------------------------------------------------------
# isolation: a server-local write never leaks into another server's view
# ----------------------------------------------------------------------


class TestIsolation:
    @pytest.mark.parametrize("procedure", ["ProtAddUser", "ProtRemoveUser"])
    def test_protection_server_write_waits_for_each_peers_sync(self, procedure):
        campus = protserver_campus(clusters=3)
        host = campus.server(0)
        before = procedure == "ProtRemoveUser"  # is "victim" a user before?
        if before:
            campus.add_user("victim", "pw")
        arrivals = {
            peer.host.name: spy_arrivals(
                peer, "SyncProtection",
                lambda peer=peer: (host.protection.is_user("victim"),
                                   peer.protection.is_user("victim")))
            for peer in campus.servers[1:]
        }
        prot_call(campus, 0, "alice", "alice-pw", procedure,
                  {"username": "victim", "key": derive_user_key("victim", "pw")})
        # Each peer still held the old version when its sync arrived,
        # although the host had long applied the write.
        assert arrivals == {name: [(not before, before)]
                            for name in ("server1", "server2")}
        for server in campus.servers:
            assert server.protection.is_user("victim") is (not before)
            assert server.protection.state is host.protection.state

    def test_manual_update_touches_only_the_servers_it_is_given(self):
        campus = small_campus(mode="prototype", clusters=3,
                              workstations_per_cluster=1)
        manual_update(campus.servers[:2], lambda db: db.add_user("manual"))
        assert campus.server(0).protection.is_user("manual")
        assert campus.server(1).protection.is_user("manual")
        assert not campus.server(2).protection.is_user("manual")
        # Each hand-edited replica holds its own copy.
        states = {id(server.protection.state) for server in campus.servers}
        assert len(states) == 3

    def test_move_volume_reassign_waits_for_each_peers_sync(self):
        campus = small_campus(clusters=3, workstations_per_cluster=1)
        mover = campus.server(0)

        def custodians(peer):
            return (mover.location.entry_for_volume("u-alice").custodian,
                    peer.location.entry_for_volume("u-alice").custodian)

        arrivals = [spy_arrivals(peer, "SyncLocation",
                                 lambda peer=peer: custodians(peer))
                    for peer in campus.servers[1:]]
        run(campus, mover.move_volume("u-alice", "server1"))
        assert arrivals == [[("server1", "server0")]] * 2
        for server in campus.servers:
            assert server.location.custodian_of("/usr/alice") == "server1"

    def test_set_ro_servers_waits_for_each_peers_sync(self):
        campus = small_campus(clusters=3, workstations_per_cluster=1)
        releaser = campus.server(0)

        def placements(peer):
            return (releaser.location.entry_for_volume("u-alice").ro_servers,
                    peer.location.entry_for_volume("u-alice").ro_servers)

        arrivals = [spy_arrivals(peer, "SyncLocation",
                                 lambda peer=peer: placements(peer))
                    for peer in campus.servers[1:]]
        run(campus, releaser.release_readonly("u-alice", ["server0", "server1"]))
        assert arrivals == [[(("server0", "server1"), ())]] * 2
        assert campus.server(2).location.entry_for_volume(
            "u-alice").ro_servers == ("server0", "server1")

    def test_controller_writes_during_a_coded_failover_wait_for_each_sync(self):
        # Width 3 on 4 servers: promotion (reassign) and a rebuild onto the
        # spare (set_replicas) both happen, each followed by a broadcast.
        campus = small_campus(clusters=4, workstations_per_cluster=1,
                              erasure=ErasureConfig(data=2, parity=1))
        controller = campus.replication_controller
        views = {}  # server -> the u-alice entry it last installed
        drift = []  # (server, held, installed) whenever the two differ

        def watch(server):
            handler = server.node.services["SyncLocation"]

            def spy(conn, args, payload):
                held = server.location.entry_for_volume("u-alice")
                if held != views[server.host.name]:
                    drift.append((server.host.name, held, views[server.host.name]))
                result = yield from handler(conn, args, payload)
                views[server.host.name] = server.location.entry_for_volume("u-alice")
                return result

            views[server.host.name] = server.location.entry_for_volume("u-alice")
            server.node.services["SyncLocation"] = spy

        for server in campus.servers[1:]:
            watch(server)
        campus.server(0).host.crash()
        settle(campus, 60.0)
        assert controller.promotions >= 1 and controller.rebuilds >= 1
        assert drift == []
        entry = controller.location.entry_for_volume("u-alice")
        assert entry.custodian != "server0" and "server0" not in entry.replicas
        for server in campus.servers[1:]:
            assert server.location.entry_for_volume("u-alice") == entry

    def test_batch_setup_master_write_invisible_until_exit(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        replica = campus.server(1)
        with campus.batch_setup():
            campus.add_user("newcomer", "pw")
            campus.create_volume("/late", custodian=0, volume_id="late")
            campus.add_group("crew", members=["newcomer"])
            assert not replica.protection.is_user("newcomer")
            assert "crew" not in replica.protection.groups
            assert replica.location.custodian_of("/late/x") == "server0"
            assert replica.location.resolve("/late/x")[0].volume_id == "root"
        assert replica.protection.is_user("newcomer")
        assert replica.location.resolve("/late/x")[0].volume_id == "late"
        assert replica.location.state is campus.server(0).location.state

    def test_entries_are_read_only(self):
        db = LocationDatabase()
        entry = db.add("/v", "v1", "server0", replicas=["server0", "server1"])
        with pytest.raises(AttributeError):
            entry.custodian = "server9"
        with pytest.raises(TypeError):
            entry.replicas[0] = "server9"
        assert db.entry_for_volume("v1").replicas == ("server0", "server1")


# ----------------------------------------------------------------------
# lag: what a server missed stays missed until its next sync
# ----------------------------------------------------------------------


class TestLag:
    def test_server_down_at_a_broadcast_resolves_the_old_custodian(self):
        campus = small_campus(clusters=3, workstations_per_cluster=1,
                              replication=ReplicationConfig(factor=2))
        controller = campus.replication_controller
        bystander = campus.server(2)
        campus.server(0).host.crash()
        bystander.host.crash()
        settle(campus, 40.0)  # both declared dead; u-alice fails over
        assert controller.location.custodian_of("/usr/alice") == "server1"
        assert campus.server(1).location.custodian_of("/usr/alice") == "server1"
        assert bystander.location.custodian_of("/usr/alice") == "server0"

        arrivals = spy_arrivals(
            bystander, "SyncLocation",
            lambda: bystander.location.custodian_of("/usr/alice"))
        bystander.host.recover()
        settle(campus, 30.0)  # heartbeat, then the rejoin's sync
        assert controller.rejoins == 1
        assert arrivals[0] == "server0"
        assert bystander.location.custodian_of("/usr/alice") == "server1"

    def test_decoded_bytes_path_syncs_private_copies(self):
        # The bulk-transfer shape: every hop unseals and unmarshals, so a
        # snapshot arrives as plain data and each peer builds its own.
        campus = protserver_campus(clusters=3, functional_payload_crypto=True,
                                   payload_fast_path=False)
        host = campus.server(0)
        prot_call(campus, 0, "alice", "alice-pw", "ProtAddUser",
                  {"username": "newbie", "key": derive_user_key("newbie", "pw")})
        run(campus, host.move_volume("u-alice", "server1"))
        for peer in campus.servers[1:]:
            assert peer.protection.user_key("newbie") == derive_user_key("newbie", "pw")
            assert peer.protection.users == host.protection.users
            assert peer.protection.state is not host.protection.state
            assert peer.location.custodian_of("/usr/alice/f") == "server1"
            assert peer.location.entries() == host.location.entries()
            assert peer.location.state is not host.location.state
        # A private copy is written in place, and still leaks nowhere.
        peer = campus.server(1)
        peer.protection.add_user("local-only")
        assert not host.protection.is_user("local-only")
        assert not campus.server(2).protection.is_user("local-only")


# ----------------------------------------------------------------------
# sharing and what it costs
# ----------------------------------------------------------------------


def _grouped_campus(clusters, per_cluster, **overrides):
    campus = ITCSystem(SystemConfig(clusters=clusters,
                                    workstations_per_cluster=per_cluster,
                                    **overrides))
    with campus.batch_setup():
        provision_campus(campus, hot_files=1, cold_files=1, shared_files=1,
                         binary_files=1)
        for cluster in range(clusters):
            campus.add_group(f"dept{cluster}")
            for index in range(per_cluster):
                campus.add_member(f"dept{cluster}",
                                  f"user{cluster * per_cluster + index:03d}")
    return campus


class TestSharing:
    def test_every_server_points_at_one_state(self):
        campus = _grouped_campus(10, 1, replication=ReplicationConfig(factor=2))
        assert len({id(s.location.state) for s in campus.servers}) == 1
        assert len({id(s.protection.state) for s in campus.servers}) == 1
        assert campus.replication_controller.location.state is campus.server(0).location.state

    def test_member_index_built_once_per_version(self, monkeypatch):
        builds = []
        parents = ProtectionState.parents

        def counted(state):
            if state._parents is None:
                builds.append(state.version)
            return parents(state)

        monkeypatch.setattr(ProtectionState, "parents", counted)
        campus = _grouped_campus(10, 1)
        for server in campus.servers:
            assert "dept3" in server.protection.cps("user003")
        assert len(builds) == 1
        campus.add_member("dept3", "user004")
        for server in campus.servers:
            assert "dept3" in server.protection.cps("user004")
        assert len(builds) == 2
        # The memos and their counters stay per server.
        assert [s.protection.cps_misses for s in campus.servers] == [2] * 10

    def test_load_adopts_the_carried_state(self):
        master = ProtectionDatabase()
        master.add_user("satya")
        replica = ProtectionDatabase()
        replica.load_snapshot(master.snapshot())
        assert replica.state is master.state
        master.add_user("howard")  # the sender copies first
        assert not replica.is_user("howard")
        assert replica.version == master.version - 1

    def test_campus_heap_is_one_copy(self):
        """Protection plus location heap on a 20 x 5 campus: at most 1.5x
        what one server's private copy costs (20 copies before sharing)."""
        acl_lines, first = inspect.getsourcelines(AccessList)
        modules = [tracemalloc.Filter(True, "*/vice/protection.py"),
                   tracemalloc.Filter(True, "*/vice/location.py"),
                   tracemalloc.Filter(True, "*/vice/replicated.py")] + [
            # Volumes' ACLs live in protection.py too, but are not the database.
            tracemalloc.Filter(False, "*/vice/protection.py", lineno=line)
            for line in range(first, first + len(acl_lines))]

        def traced():
            gc.collect()  # also empties the dict/list free lists
            return sum(stat.size for stat in tracemalloc.take_snapshot()
                       .filter_traces(modules).statistics("filename"))

        tracemalloc.start()
        try:
            campus = _grouped_campus(20, 5)
            held = traced()
            master = campus.server(0)
            copy = (ProtectionDatabase(), LocationDatabase())
            before = traced()
            # A plain dict is what a decoded snapshot is: rebuilt privately.
            copy[0].load_snapshot(dict(master.protection.snapshot()))
            copy[1].load_snapshot(dict(master.location.snapshot()))
            one_copy = traced() - before
        finally:
            tracemalloc.stop()
        assert copy[1].entries() == master.location.entries()
        assert one_copy > 0
        assert held <= 1.5 * one_copy, (held, one_copy)
