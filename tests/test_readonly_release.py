"""System binaries released read-only to every cluster server (§3.2).

``provision_campus`` releases ``/unix`` at setup on a campus of more than
one server whose ``/unix`` has no read-write members
(``ITCSystem.release_readonly``): every server holds the frozen clone, and
a workstation reads binaries from its own cluster.  A read whose nearest
read-only site does not answer moves on to the next one, the custodian
last; a write only ever goes to the custodian.
"""

import pytest

from repro import ITCSystem, SystemConfig
from repro.errors import ServerUnavailable
from repro.storage.unixfs import FileType, ProvisionedBody
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import ReplicationConfig
from repro.workload import provision_campus
from tests.helpers import alice_session, indexed_inodes, run, small_campus


def provisioned(clusters=3, workstations=1, **overrides):
    campus = ITCSystem(SystemConfig(
        clusters=clusters, workstations_per_cluster=workstations,
        functional_payload_crypto=False, **overrides))
    users = provision_campus(campus, hot_files=2, cold_files=2,
                             shared_files=2, binary_files=4)
    return campus, users


class TestSetupRelease:
    def test_every_server_holds_the_clone_s_own_bodies(self):
        campus, _users = provisioned()
        clone = campus.server(0).volumes["unix-ro"]
        assert clone.read_only and clone.cloned_from == "unix"
        bodies = {number: node.body for number, node in indexed_inodes(clone)
                  if node.file_type == FileType.FILE}
        assert len(bodies) == 4
        assert all(type(body) is ProvisionedBody for body in bodies.values())
        names = [server.host.name for server in campus.servers]
        for server in campus.servers:
            replica = server.volumes["unix-ro"]
            assert replica.read_only
            for number, body in bodies.items():
                assert replica._inodes[number].body is body
            assert server.location.entry_for_volume("unix").ro_servers == tuple(names)

    def test_release_takes_no_virtual_time_and_ships_nothing(self):
        campus, _users = provisioned()
        assert campus.sim.now == 0.0
        assert campus.network.total_bytes_on("backbone") == 0

    def test_a_cluster_s_binary_fetch_lands_on_its_own_server(self):
        campus, users = provisioned()
        for cluster, user in enumerate(users):
            before = [server.call_mix.count("fetch") for server in campus.servers]
            data = run(campus, user.session.read_file("/vice/unix/bin/prog_001"))
            assert data.startswith(b"\x7fELF")
            after = [server.call_mix.count("fetch") for server in campus.servers]
            moved = [index for index, (b, a) in enumerate(zip(before, after)) if a != b]
            assert moved == [cluster]

    @pytest.mark.parametrize("clusters, overrides", [
        (1, {}),
        (2, {"replication": ReplicationConfig(factor=2)}),
        (3, {"erasure": ErasureConfig(data=2, parity=1)}),
    ], ids=["one-server", "copies", "coded"])
    def test_campuses_that_keep_unix_on_its_members(self, clusters, overrides):
        campus, _users = provisioned(clusters=clusters, **overrides)
        assert not any(volume_id.endswith("-ro")
                       for server in campus.servers for volume_id in server.volumes)
        assert campus.location.entry_for_volume("unix").ro_servers == ()


class TestReadOnlyFailover:
    def _campus(self, clusters=2):
        campus = small_campus(clusters=clusters, workstations_per_cluster=1)
        unix = campus.create_volume("/unix", custodian=0, volume_id="unix")
        campus.populate(unix, {f"/bin/tool{i}": b"ELF" + bytes([i]) * 500
                               for i in range(3)})
        return campus

    def test_a_read_moves_on_when_its_replica_site_is_down(self):
        campus = self._campus()
        # The protocol release: failover does not depend on how the
        # replicas were placed.
        names = [server.host.name for server in campus.servers]
        run(campus, campus.server(0).release_readonly("unix", names))
        remote = alice_session(campus, "ws1-0")
        run(campus, remote.read_file("/vice/unix/bin/tool0"))  # from server1
        campus.server(1).host.crash()
        fetches = campus.server(0).call_mix.count("fetch")
        data = run(campus, remote.read_file("/vice/unix/bin/tool1"))
        assert data == b"ELF" + bytes([1]) * 500
        assert campus.server(0).call_mix.count("fetch") == fetches + 1
        assert campus.workstation("ws1-0").venus.failovers == 1

    def test_the_custodian_is_the_last_fallback(self):
        campus = self._campus(clusters=3)
        campus.release_readonly(campus.volume("unix"))
        entry = campus.server(0).location.entry_for_volume("unix").as_dict()
        sites = {ws.name: ws.venus._sites(entry, "unix-ro.1")
                 for ws in campus.workstations}
        assert sites == {"ws0-0": ["server0", "server1", "server2"],
                         "ws1-0": ["server1", "server2", "server0"],
                         "ws2-0": ["server2", "server1", "server0"]}

    def test_a_write_never_retries_at_a_read_only_site(self):
        campus = self._campus()
        campus.release_readonly(campus.volume("unix"))
        remote = alice_session(campus, "ws1-0")
        run(campus, remote.read_file("/vice/unix/bin/tool0"))
        campus.server(0).host.crash()
        calls = campus.server(1).call_mix.as_dict()
        with pytest.raises(ServerUnavailable):
            run(campus, remote.write_file("/vice/unix/bin/tool0", b"NEW"))
        assert campus.server(1).call_mix.as_dict() == calls
