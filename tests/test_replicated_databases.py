"""One replicated-database protocol, and one authoritative location copy.

The location and protection databases share one copy-on-write replica
type and one sync path (``repro.vice.replicated``): every holder serves
one handler body and pushes with one broadcast, the replication
controller is a location holder like any server, and ``campus.location``
is the one copy readers trust.  These tests pin what that buys after a
custodian dies, and guard the structure against a second copy growing
back.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.dashboard import volume_report
from repro.errors import ReproError
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import DETECTION_TIME, ReplicationConfig
from tests.helpers import alice_session, prot_call, protserver_campus, run, small_campus

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent
REDUNDANCY = {
    "factor-3": dict(replication=ReplicationConfig(factor=3)),
    "stripe-2+1": dict(erasure=ErasureConfig(data=2, parity=1)),
}


def settle(campus, seconds):
    campus.run(until=campus.sim.now + seconds)


# ----------------------------------------------------------------------
# the authority after a custodian dies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("redundancy", sorted(REDUNDANCY))
def test_location_is_the_promoted_copy_after_the_custodian_dies(redundancy):
    campus = small_campus(clusters=3, workstations_per_cluster=1,
                          **REDUNDANCY[redundancy])
    campus.server(0).host.crash()  # u-alice's custodian, never recovered
    settle(campus, 4 * DETECTION_TIME)
    run(campus, alice_session(campus, 1).write_file("/vice/usr/alice/late",
                                                    b"after the death"))

    promoted = campus.replication_controller.location.entry_for_volume(
        "u-alice").custodian
    assert promoted != "server0"
    volume = campus.volume("u-alice")
    assert volume is campus.server(promoted).volumes["u-alice"]
    assert campus.server(promoted).host.up
    volume.resolve("/late")  # the write the promoted primary took
    assert campus.location.entry_for_volume("u-alice").custodian == promoted

    row = {row[1]: row for row in volume_report(campus).rows}["u-alice"]
    assert row[2] == promoted
    assert row[5] == str(volume.file_count)


# ----------------------------------------------------------------------
# one version sequence: a server's write reaches the controller
# ----------------------------------------------------------------------


def test_a_server_side_location_write_survives_a_failover():
    campus = small_campus(clusters=4, workstations_per_cluster=1,
                          replication=ReplicationConfig(factor=3))
    controller = campus.replication_controller
    released = ("server0", "server1")
    run(campus, campus.server(0).release_readonly("u-alice", list(released)))

    campus.server(0).host.crash()
    settle(campus, 4 * DETECTION_TIME)
    assert controller.promotions >= 1

    versions = set()

    def check(location):
        entry = location.entry_for_volume("u-alice")
        assert entry.custodian != "server0"
        assert entry.ro_servers == released
        versions.add(location.version)

    for server in campus.servers:
        if server.host.up:
            check(server.location)
    check(controller.location)
    check(campus.location)
    assert len(versions) == 1


def test_a_setup_write_after_a_failover_lands_on_top_of_it():
    # Server0's replica (the setup master) missed the failover while it
    # was down; a setup write must not roll the promotion back.
    campus = small_campus(clusters=3, workstations_per_cluster=1,
                          replication=ReplicationConfig(factor=3))
    controller = campus.replication_controller
    campus.server(0).host.crash()
    settle(campus, 4 * DETECTION_TIME)
    promoted = controller.location.entry_for_volume("u-alice").custodian
    assert promoted != "server0"

    campus.create_user_volume("carol", cluster=1)
    live = [server.location for server in campus.servers if server.host.up]
    for location in live + [controller.location, campus.location]:
        assert location.entry_for_volume("u-alice").custodian == promoted
        assert location.entry_for_volume("u-carol").custodian == "server1"
        assert location.version == campus.location.version


# ----------------------------------------------------------------------
# a server-side change a holder missed: the caller hears of it
# ----------------------------------------------------------------------


def test_a_broadcast_with_a_holder_down_fails_and_the_next_one_heals_it():
    # The reachable holders still get the version.  Every snapshot is the
    # whole database, so the missed holder catches up at the next sync
    # that reaches it.
    campus = small_campus(clusters=3, workstations_per_cluster=1)
    campus.create_user_volume("bob", cluster=0)
    down = campus.server(2)
    down.host.crash()
    with pytest.raises(ReproError):
        run(campus, campus.server(0).move_volume("u-alice", "server1"))
    assert campus.server(1).location.custodian_of("/usr/alice") == "server1"
    assert down.location.custodian_of("/usr/alice") == "server0"

    down.host.recover()
    run(campus, campus.server(0).move_volume("u-bob", "server1"))
    assert down.location.entries() == campus.server(0).location.entries()
    assert down.location.custodian_of("/usr/alice") == "server1"


def test_a_protection_change_a_server_missed_fails_the_call():
    # A server authenticates with its own replica: one that missed a
    # ProtRemoveUser still admits the user, so the administrator must
    # not be told the removal is in effect.
    campus = protserver_campus(clusters=3)
    campus.add_user("victim", "pw")
    down = campus.server(2)
    down.host.crash()
    with pytest.raises(ReproError):
        prot_call(campus, 0, "alice", "alice-pw", "ProtRemoveUser",
                  {"username": "victim"})
    assert not campus.server(1).protection.is_user("victim")
    assert down.protection.is_user("victim")


# ----------------------------------------------------------------------
# structure guards: one replica type, one handler, one authority
# ----------------------------------------------------------------------


def _python_files(*roots):
    for root in roots:
        yield from sorted((ROOT / root).rglob("*.py"))


def _modules_with(test, *roots):
    """Every module under ``roots`` with an AST node ``test`` accepts."""
    return {str(path.relative_to(ROOT)) for path in _python_files(*roots)
            if any(test(node) for node in ast.walk(ast.parse(path.read_text())))}


def test_only_the_replicated_database_module_builds_shared_or_writes_shared():
    def builds_shared(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "Shared")

    def writes_shared_flag(node):
        return (isinstance(node, ast.Attribute) and node.attr == "_shared"
                and isinstance(node.ctx, ast.Store))

    assert _modules_with(builds_shared, "src") == {"src/repro/vice/replicated.py"}
    assert _modules_with(writes_shared_flag, "src") == {
        "src/repro/vice/replicated.py"}


def test_only_the_campus_reads_the_setup_master():
    def reads_master(node):
        return (isinstance(node, ast.Attribute)
                and node.attr == "_location_master")

    assert _modules_with(reads_master, "src", "tests", "benchmarks",
                         "examples") == {"src/repro/system/itc.py"}


def test_authoritative_location_is_gone():
    word = "authoritative" + "_location"
    users = [path for path in _python_files("src", "tests", "benchmarks", "examples")
             if word in path.read_text() and path != Path(__file__)]
    assert users == []


def test_every_sync_is_served_by_one_handler():
    from repro.vice.replicated import DatabaseHolder

    campus = small_campus(clusters=2, workstations_per_cluster=1,
                          replication=ReplicationConfig(factor=2))
    holders = [(server, ("SyncLocation", "SyncProtection"))
               for server in campus.servers]
    holders.append((campus.replication_controller, ("SyncLocation",)))
    bodies = {holder.node.services[name].func.__func__
              for holder, names in holders for name in names}
    assert bodies == {DatabaseHolder._sync_handler}
