"""Tests for the ITCSystem facade: setup-time administration and metrics."""

import dataclasses
import inspect

import pytest

from repro import ITCSystem, SystemConfig
from repro.errors import InvalidArgument
from repro.rpc import RpcCosts
from repro.venus.venus import Venus
from repro.vice.costs import ViceCosts
from repro.vice.protection import AccessList
from repro.vice.replication import ReplicationConfig, ReplicationController
from repro.vice.server import ViceServer
from repro.virtue.workstation import Workstation
from tests.helpers import run


@pytest.fixture
def campus():
    return ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=2))


class TestConstruction:
    @pytest.mark.parametrize("field,value,named", [
        ("mode", "prototyp", "prototyp"),
        ("validation", "psychic", "psychic"),
        ("write_policy", "psychic", "psychic"),
        ("encryption", "rot13", "'hardware', 'none', 'software'"),
        ("clusters", 0, "at least 1"),
    ])
    def test_config_typo_rejected_at_construction(self, field, value, named):
        with pytest.raises(InvalidArgument, match=named):
            ITCSystem(SystemConfig(**{field: value}))

    def test_validate_refuses_without_building_anything(self):
        SystemConfig().validate()
        with pytest.raises(InvalidArgument, match="at least 1"):
            SystemConfig(clusters=0).validate()
        for field in ("mode", "validation", "write_policy", "encryption"):
            with pytest.raises(InvalidArgument, match="'typo'"):
                SystemConfig(**{field: "typo"}).validate()

    def test_topology_matches_config(self, campus):
        assert len(campus.servers) == 2
        assert len(campus.workstations) == 4
        assert campus.config.total_workstations == 4
        assert "backbone" in campus.network.segments
        assert "cluster1" in campus.network.segments

    def test_lookup_by_name_and_index(self, campus):
        assert campus.workstation("ws1-0") is campus.workstation(2)
        assert campus.server("server1") is campus.server(1)

    def test_root_volume_mounted(self, campus):
        entry, rest = campus.servers[0].location.resolve("/anything")
        assert entry.volume_id == "root"

    def test_databases_replicated_at_all_servers(self, campus):
        campus.add_user("u", "pw")
        for server in campus.servers:
            assert server.protection.is_user("u")
            assert server.location.version == campus.servers[0].location.version


class TestVolumeAdministration:
    def test_create_volume_makes_stub_dirs(self, campus):
        campus.create_volume("/a/b/c", custodian=1, volume_id="deep")
        root = campus.volume("root")
        assert root.fs.exists("/a/b/c")
        entry, rest = campus.servers[0].location.resolve("/a/b/c/file")
        assert entry.volume_id == "deep"
        assert rest == "/file"

    def test_nested_mounts_resolve_to_deepest(self, campus):
        campus.create_volume("/proj", custodian=0, volume_id="proj")
        campus.create_volume("/proj/sub", custodian=1, volume_id="projsub")
        entry, _ = campus.servers[0].location.resolve("/proj/sub/x")
        assert entry.volume_id == "projsub"
        entry, _ = campus.servers[0].location.resolve("/proj/other")
        assert entry.volume_id == "proj"

    def test_user_volume_lands_in_requested_cluster(self, campus):
        campus.add_user("u", "pw")
        campus.create_user_volume("u", cluster=1)
        assert "u-u" in campus.server(1).volumes
        assert campus.servers[0].location.custodian_of("/usr/u") == "server1"

    def test_populate_builds_directories(self, campus):
        volume = campus.create_volume("/data", custodian=0, volume_id="data")
        campus.populate(volume, {"/x/y/z.txt": b"deep", "/top.txt": b"shallow"})
        assert volume.read("/x/y/z.txt") == b"deep"
        assert volume.read("/top.txt") == b"shallow"

    def test_volume_lookup_missing(self, campus):
        with pytest.raises(InvalidArgument):
            campus.volume("ghost")

    def test_set_directory_acl(self, campus):
        campus.add_user("u", "pw")
        volume = campus.create_user_volume("u")
        acl = AccessList()
        acl.grant("u", "rwidlak")
        campus.set_directory_acl(volume, "/", acl)
        assert "system:anyuser" not in volume.acls[volume.fs.root.number].positive


class TestMetrics:
    def test_reset_counters(self, campus):
        campus.add_user("u", "pw")
        campus.create_user_volume("u")
        session = campus.login(0, "u", "pw")
        run(campus, session.write_file("/vice/usr/u/f", b"x"))
        assert campus.server(0).call_mix.total > 0
        campus.reset_counters()
        assert campus.server(0).call_mix.total == 0
        assert campus.workstation(0).venus.cache.hits == 0

    def test_mean_hit_ratio_empty(self, campus):
        assert campus.mean_hit_ratio() == 0.0

    def test_campus_call_mix_empty(self, campus):
        assert campus.campus_call_mix() == {}

    def test_busiest_server_defined(self, campus):
        server, utilization = campus.busiest_server()
        assert server in campus.servers
        assert utilization >= 0.0

    def test_cross_cluster_bytes_counts_backbone_only(self, campus):
        campus.add_user("u", "pw")
        campus.create_user_volume("u", cluster=0)
        local = campus.login("ws0-0", "u", "pw")
        run(campus, local.write_file("/vice/usr/u/f", b"y" * 1000))
        assert campus.cross_cluster_bytes() == 0  # all intra-cluster
        remote = campus.login("ws1-0", "u", "pw")
        run(campus, remote.read_file("/vice/usr/u/f"))
        assert campus.cross_cluster_bytes() > 0


class TestConfig:
    def test_every_setting_is_a_field_with_a_caller(self):
        # docs/simulation.md's configuration reference names who sets each.
        assert {f.name for f in dataclasses.fields(SystemConfig)} == {
            "mode", "validation", "clusters", "workstations_per_cluster",
            "encryption", "functional_payload_crypto", "payload_fast_path",
            "cache_max_files", "cache_max_bytes", "write_policy",
            "flush_delay", "flush_retry_limit", "max_server_processes",
            "rpc_costs", "vice_costs", "replication", "erasure",
            "fault_plan", "seed",
        }

    def test_components_default_nothing_themselves(self):
        def defaulted(cls):
            parameters = inspect.signature(cls.__init__).parameters.values()
            return [p.name for p in parameters if p.default is not p.empty]

        assert defaulted(Venus) == []
        assert defaulted(Workstation) == []
        assert defaulted(ViceServer) == []
        assert defaulted(ReplicationController) == ["factor"]

    # The mode table in repro.vice.server's docstring, row by row.
    @pytest.mark.parametrize("validation", [None, "check-on-open", "callback"])
    @pytest.mark.parametrize(
        "mode,validates,transport,structure,cache,rpc,vice,lock_process", [
            ("prototype", "check-on-open", "stream", "process", "count",
             RpcCosts.prototype(), ViceCosts.prototype(), True),
            ("revised", "callback", "datagram", "lwp", "space",
             RpcCosts.revised(), ViceCosts.revised(), False),
        ])
    def test_mode_is_expanded_once(self, mode, validation, validates, transport,
                                   structure, cache, rpc, vice, lock_process):
        config = SystemConfig(mode=mode, validation=validation, clusters=1,
                              workstations_per_cluster=1)
        assert config.validation_policy == (validation or validates)
        assert config.transport == transport
        assert config.server_structure == structure
        assert config.cache_policy == cache
        assert config.rpc_cost_model == rpc
        assert config.vice_cost_model == vice
        # ... and the components are built from exactly those.
        campus = ITCSystem(config)
        server, venus = campus.servers[0], campus.workstations[0].venus
        assert server.validation_mode == venus.validation == config.validation_policy
        assert server.node.transport == venus.node.transport == transport
        assert server.node.server_mode == structure
        assert venus.cache.policy == cache
        assert server.node.costs == venus.node.costs == rpc
        assert server.costs == vice
        assert (server._lock_process is not None) == lock_process

    def test_every_node_carries_the_campus_rpc_settings(self):
        config = SystemConfig(replication=ReplicationConfig(factor=2),
                              payload_fast_path=False,
                              functional_payload_crypto=False,
                              encryption="software")
        campus = ITCSystem(config)
        nodes = ([campus.replication_controller.node]
                 + [server.node for server in campus.servers]
                 + [ws.venus.node for ws in campus.workstations])
        for node in nodes:
            assert node.payload_fast_path is False, node.host.name
            assert node.functional_payload_crypto is False, node.host.name
            assert node.encryption == "software", node.host.name
            assert node.costs == config.rpc_cost_model, node.host.name
            assert node.transport == "datagram", node.host.name

    def test_invalid_mode_rejected(self):
        with pytest.raises(Exception):
            ITCSystem(SystemConfig(mode="quantum"))


class TestBatchSetup:
    def test_sync_deferred_until_block_exit(self, campus):
        replica = campus.servers[1].protection
        with campus.batch_setup():
            campus.add_user("newcomer", "pw")
            assert "newcomer" not in replica.users  # push coalesced
        assert "newcomer" in replica.users          # one sync at exit

    def test_later_setup_calls_see_earlier_ones(self, campus):
        with campus.batch_setup():
            campus.add_user("alice", "pw")
            campus.add_group("team", members=["alice"])
            volume = campus.create_user_volume("alice", cluster=1)
        assert "alice" in campus.servers[0].protection.cps("alice")
        assert "team" in campus.servers[1].protection.cps("alice")
        entry, _ = campus.servers[0].location.resolve("/usr/alice/x")
        assert entry.volume_id == volume.volume_id

    def test_nested_blocks_sync_once_at_outermost_exit(self, campus):
        replica = campus.servers[1].protection
        with campus.batch_setup():
            with campus.batch_setup():
                campus.add_user("inner", "pw")
            assert "inner" not in replica.users
            campus.add_user("outer", "pw")
        assert {"inner", "outer"} <= replica.users

    def test_no_sync_without_mutation(self, campus):
        before = campus.servers[1].protection.version
        with campus.batch_setup():
            pass
        assert campus.servers[1].protection.version == before

    def test_batched_state_matches_unbatched(self):
        def provision(campus):
            campus.add_user("u1", "pw")
            campus.add_group("g", members=["u1"])
            campus.create_user_volume("u1", cluster=1)

        plain = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=2))
        provision(plain)
        batched = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=2))
        with batched.batch_setup():
            provision(batched)
        for index in (0, 1):
            assert (batched.servers[index].protection.snapshot()
                    == plain.servers[index].protection.snapshot())
            assert (batched.servers[index].location.snapshot()
                    == plain.servers[index].location.snapshot())
