"""What a campus holds once, checked on a small charged campus after a
short day (the metro-1000 row at 2 x 5 workstations).

Each guard pins one cut of the memory census in ``docs/performance.md``:
a connection whose crypto is charged holds no cipher pair, the
at-most-once straggler set exists only while there is a gap, a new
directory shares its parent's installed access list until one of them is
replaced, every status record spells its rights with the one string for
that rights set, and a Venus holds its state in slots, not a dict.
"""

import pytest

from repro.errors import InvalidArgument
from repro.rpc.connection import CHARGED
from repro.storage.unixfs import FileType
from repro.vice.protection import Rights
from repro.workload.scenario import SCENARIOS


@pytest.fixture(scope="module")
def campus():
    row = SCENARIOS["metro-1000"]().with_(
        clusters=2, workstations_per_cluster=5, warmup=30.0, duration=120.0)
    campus, summary = row.day()
    assert summary["actions"] > 0 and summary["failures"] == 0
    return campus


def _connections(campus):
    nodes = [server.node for server in campus.servers]
    nodes += [ws.venus.node for ws in campus.workstations]
    return [conn for node in nodes for conn in node.connections.values()]


def test_no_charged_connection_holds_a_cipher(campus):
    connections = _connections(campus)
    assert connections and all(conn.regime == CHARGED for conn in connections)
    assert all(conn._ciphers is None for conn in connections)


def test_no_straggler_set_without_a_gap(campus):
    for conn in _connections(campus):
        stragglers = conn._stragglers
        if stragglers is not None:  # a retired call waits above a gap
            assert stragglers and conn.acked + 1 not in stragglers
    # Calls retire in order almost always: the day ends with (nearly) none.
    held = [conn for conn in _connections(campus) if conn._stragglers is not None]
    assert len(held) <= len(campus.workstations)


def test_a_new_directory_shares_its_parent_acl_until_one_is_replaced(campus):
    shared = 0
    for server in campus.servers:
        for volume in server.volumes.values():
            for vnode, node in volume._inodes.items():
                if node.file_type == FileType.DIRECTORY and node.parent:
                    if volume.acls[vnode] is volume.acls[node.parent]:
                        shared += 1
    assert shared > len(campus.workstations)  # every home's subdirectories

    volume = campus.volume("u-user000")
    root = volume.fs.root.number
    child = next(vnode for vnode, node in volume._inodes.items()
                 if node.file_type == FileType.DIRECTORY and node.parent == root)
    parent_acl = volume.acls[root]
    before = parent_acl.as_dict()
    assert volume.acls[child] is parent_acl
    with pytest.raises(InvalidArgument):  # installed, so shared: never edited
        parent_acl.grant("mallory", "rl")
    edited = parent_acl.copy()
    edited.grant("mallory", "rl")
    volume.set_acl(child, edited)
    assert volume.acls[root] is parent_acl and parent_acl.as_dict() == before
    assert "mallory" not in parent_acl.positive
    assert volume.acls[child].positive["mallory"] == frozenset("rl")


def test_status_records_spell_rights_with_one_string(campus):
    records = [entry.status for ws in campus.workstations
               for entry in ws.venus.cache if entry.status is not None]
    assert records
    for status in records:
        assert status["rights"] is Rights.spell(frozenset(status["rights"]))


def test_a_venus_holds_no_instance_dict(campus):
    assert not hasattr(campus.workstations[0].venus, "__dict__")
