"""What a campus holds once, checked on a small charged campus after a
short day (the metro-1000 row at 2 x 5 workstations).

Each guard pins one cut of the memory census in ``docs/performance.md``:
a connection whose crypto is charged holds no cipher pair, the
at-most-once straggler set exists only while there is a gap, a new
directory shares its parent's installed access list until one of them is
replaced, every status record spells its rights with the one string for
that rights set, a Venus holds its state in slots, not a dict, a
provisioned file has an inode only once a call has asked for it, and a
file with one callback-promise holder keeps no per-file dict for it.
"""

import gc

import pytest

from repro.errors import InvalidArgument
from repro.rpc.connection import CHARGED
from repro.storage import pathutil
from repro.storage.unixfs import FileType
from repro.vice.fileserver import FileService
from repro.vice.protection import AccessList, Rights
from repro.workload.scenario import SCENARIOS
from tests.helpers import indexed_inodes


@pytest.fixture(scope="module")
def day():
    """The campus after its day; the (server, volume, vnode) of every file
    a fetch, a status or a store answered for; and, as the day left them,
    the vnodes each provisioned directory has built inodes for (the guards
    below read them here, as other guards walk every inode)."""
    touched = set()
    status_of = FileService._status_of

    def recording(self, volume, inode, *args, **kwargs):
        if inode.file_type == FileType.FILE:
            touched.add((self.host.name, volume.volume_id, inode.number))
        return status_of(self, volume, inode, *args, **kwargs)

    row = SCENARIOS["metro-1000"]().with_(
        clusters=2, workstations_per_cluster=5, warmup=30.0, duration=120.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FileService, "_status_of", recording)
        campus, summary = row.day()
    assert summary["actions"] > 0 and summary["failures"] == 0
    built = {(server, volume.volume_id, path): _built(directory)
             for server, volume, path, directory in _provisioned_directories(campus)}
    return campus, touched, built


@pytest.fixture(scope="module")
def campus(day):
    return day[0]


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
            for vnode, node in indexed_inodes(volume):
                if node.file_type == FileType.DIRECTORY and node.parent:
                    if volume.acls[vnode] is volume.acls[node.parent]:
                        shared += 1
    assert shared > len(campus.workstations)  # every home's subdirectories

    volume = campus.volume("u-user000")
    root = volume.fs.root.number
    child = next(vnode for vnode, node in indexed_inodes(volume)
                 if node.file_type == FileType.DIRECTORY and node.parent == root)
    parent_acl = volume.acls[root]
    before = parent_acl.as_dict()
    assert volume.acls[child] is parent_acl
    with pytest.raises(InvalidArgument):  # installed, so shared: never edited
        parent_acl.grant("mallory", "rl")
    edited = AccessList.from_dict(parent_acl.as_dict())
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


def _provisioned_directories(campus):
    """(server, volume, path, directory) of every directory holding a
    manifest of provisioned files."""
    for server in campus.servers:
        for volume in server.volumes.values():
            stack = [("/", volume.fs.root)]
            while stack:
                path, directory = stack.pop()
                if directory.manifest is not None:
                    yield server.host.name, volume, path, directory
                stack.extend((pathutil.join(path, name), child)
                             for name, child in directory.entries.items()
                             if child.file_type == FileType.DIRECTORY)


def _built(directory):
    """(vnode) of each inode the directory's manifest has built."""
    return {node.number for run in directory.manifest.runs
            for node in (run.built or {}).values()}


def test_an_untouched_provisioned_directory_holds_no_inode(day):
    campus, touched, built = day
    untouched = 0
    for server, volume, path, directory in _provisioned_directories(campus):
        held = {run.first + index for run in directory.manifest.runs
                for index in range(run.length)}
        if not any((server, volume.volume_id, vnode) in touched for vnode in held):
            untouched += 1
            assert not built[server, volume.volume_id, path], (server, volume.volume_id)
            assert directory.manifest.count == len(held)
    assert untouched >= len(campus.workstations) // 2  # most cold archives


def test_a_listdir_of_a_provisioned_directory_builds_no_inode(campus):
    for _server, volume, path, directory in _provisioned_directories(campus):
        before = _built(directory)
        names = volume.fs.listdir(path)
        assert len(names) == len(directory.entries) + directory.manifest.count
        assert len(volume.listing(directory)) == len(names)
        assert _built(directory) == before


def test_built_provisioned_inodes_are_at_most_the_files_asked_for(day):
    _campus, touched, built = day
    built = {(server, volume_id, vnode)
             for (server, volume_id, _path), vnodes in built.items() for vnode in vnodes}
    assert built and len(built) <= len(touched)
    assert built <= touched


def test_a_single_promise_holder_keeps_no_dict(campus):
    single = 0
    for server in campus.servers:
        table = server.clients
        recount = 0
        for fid, record in table._fids.items():
            holders = table.holders(fid)
            recount += len(holders)
            if len(holders) == 1:
                single += 1
                assert not any(isinstance(held, dict) for held in gc.get_referents(record)), fid
        # The gauge is a running count, not a sum taken when read.
        gauge = campus.metrics.value(f"vice.{server.host.name}.callbacks.held")
        assert gauge["value"] == recount
    assert single > len(campus.workstations)  # most promised files
