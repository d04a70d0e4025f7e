"""Provisioning: ``ITCSystem.populate`` and bodies built where they are read.

Size is metadata; a provisioned file's bytes exist for the length of an
open, a seal or a snapshot, and are never kept in the body's place.
These tests pin ``populate`` against the per-file loop it replaced, show a
volume loaded with unbuilt bodies indistinguishable from one loaded with
the bytes, and keep provisioning inside a memory and resolution budget.
"""

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import ITCSystem, SystemConfig
from repro.errors import IntegrityError, QuotaExceeded
from repro.storage.unixfs import FileType, ProvisionedBody, UnixFileSystem
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import ReplicationConfig
from repro.vice.volume import Volume
from repro.workload import provision_campus
from tests.helpers import alice_session, run, small_campus


def fingerprint(volume):
    """SHA-256 over everything ``populate`` decides for one copy."""
    digest = hashlib.sha256()
    digest.update(repr(volume.snapshot()).encode())
    digest.update(repr(sorted(volume._parents.items())).encode())
    digest.update(repr(sorted(
        (vnode, acl.as_dict()) for vnode, acl in volume.acls.items()
    )).encode())
    return digest.hexdigest()


def copies_of(campus, volume_id="u-alice"):
    return {server.host.name: server.volumes[volume_id]
            for server in campus.servers if volume_id in server.volumes}


FIRST_TREE = {
    "/a/one": b"1" * 700,
    "/a/b/two": b"22" * 900,
    "/a/empty": b"",
    "/c/three": b"333" * 50,
    "/a/b/c/four": b"four",
    "/top": b"top-level",
    "/a.d/five": b"5" * 1234,       # sorts between "/a/…" runs: parents interleave
}
SECOND_TREE = {
    "/a/one": b"rewritten" * 40,    # an existing path: version bump, byte delta
    "/a/new/deep/six": b"6" * 321,  # new directories inherit /a's edited ACL
    "/c/seven": b"",
}

# Recorded at 14204e2, from the per-file loop this populate replaced.
PINNED = {
    "plain": {
        "server0": "4b495301bc91b7dd517c1e5795a2d7fbd64d16d0170a758afcc4b097ef3b8e5c",
    },
    "replicated": {
        "server0": "ccb45abc4e03fcff0827aa0b23eda71aafa5704928e379dbf736d16aa635a654",
        "server1": "d81883d4af7abed7ecac7213ac31ee9e8ee7923a9c1f7dc18b872722216d57fd",
        "server2": "d81883d4af7abed7ecac7213ac31ee9e8ee7923a9c1f7dc18b872722216d57fd",
    },
    "coded": {
        "server0": "6a809d1202730bbff7e86e7b1ec6dab13bc15ad297defdd6bf085c2f9970ad6a",
        "server1": "96d9b8a6bd563c7b2e0cfae71aec0d3a39b1d192b82ebfde8236111d51b28dc1",
        "server2": "39ad94a127e44984d816f40f085af8991634fa5eabe848b04718576e95c4c9ad",
    },
}
CAMPUSES = {
    "plain": dict(clusters=1),
    "replicated": dict(clusters=3, replication=ReplicationConfig(factor=3)),
    "coded": dict(clusters=3, erasure=ErasureConfig(data=2, parity=1)),
}


def populate_twice(campus, first=FIRST_TREE, second=SECOND_TREE):
    volume = campus.volume("u-alice")
    campus.populate(volume, first, owner="alice")
    campus.run(until=7.5)  # so the second load stamps different mtimes
    acl = volume.acls[volume.resolve("/a").number].copy()
    acl.grant("system:staff", "rl")
    campus.set_directory_acl(volume, "/a", acl)
    campus.populate(volume, second, owner="alice")


def unbuilt(tree):
    """The same tree with every body that is one repeated byte left unbuilt."""
    return {
        path: ProvisionedBody(data[:1] or b"-", len(data))
        if data == data[:1] * len(data) else data
        for path, data in tree.items()
    }


@pytest.mark.parametrize("bodies", [dict, unbuilt], ids=["bytes", "unbuilt"])
@pytest.mark.parametrize("kind", sorted(CAMPUSES))
def test_populate_matches_the_loop_it_replaced(kind, bodies):
    campus = small_campus(**CAMPUSES[kind])
    populate_twice(campus, bodies(FIRST_TREE), bodies(SECOND_TREE))
    got = {name: fingerprint(copy) for name, copy in copies_of(campus).items()}
    assert got == PINNED[kind]


# -- lazy vs built ------------------------------------------------------------

_DIRS = st.lists(st.sampled_from(["a", "b", "a.d"]), max_size=3)
_FILES = st.sampled_from(["f0", "f1", "f2", "f3"])
_BODIES = st.builds(ProvisionedBody, st.sampled_from([b"x", b"hot ", b"\x7fELF"]),
                    st.integers(min_value=0, max_value=300))
_TREES = st.dictionaries(
    st.builds(lambda dirs, name: "/" + "/".join(dirs + [name]), _DIRS, _FILES),
    _BODIES, min_size=1, max_size=12,
)


def unbuilt_files(volume):
    return {path for path, node in volume.fs.walk("/")
            if type(node.body) is ProvisionedBody}


def metadata(volume):
    """Everything a client or an administrator can ask without reading a body."""
    return (
        [(path, node.stat()) for path, node in volume.fs.walk("/")],
        volume.used_bytes, volume.fs.total_bytes, volume.snapshot_bytes,
        volume.file_count, sorted(volume._parents.items()),
        {vnode: acl.as_dict() for vnode, acl in volume.acls.items()},
    )


@settings(max_examples=60, deadline=None)
@given(first=_TREES, second=_TREES, headroom=st.integers(0, 1200))
def test_unbuilt_and_built_bodies_are_indistinguishable(first, second, headroom):
    outcomes = []
    for build in (lambda body: body, bytes):
        campus = small_campus()
        volume = campus.volume("u-alice")
        campus.populate(volume, {p: build(b) for p, b in first.items()},
                        owner="alice")
        campus.run(until=3.0)
        volume.quota_bytes = volume.used_bytes + headroom  # bites mid-tree
        refused = None
        try:
            campus.populate(volume, {p: build(b) for p, b in second.items()},
                            owner="alice")
        except QuotaExceeded as exc:
            refused = str(exc)
        outcomes.append((campus, volume, refused))
    (_, lazy, lazy_refused), (_, built, built_refused) = outcomes

    # The same file is refused (the message carries used + delta), and
    # every answer that is metadata agrees without building anything.
    assert lazy_refused == built_refused
    waiting = unbuilt_files(lazy)
    assert waiting >= {p for p in first if p not in second}
    assert not unbuilt_files(built)
    assert metadata(lazy) == metadata(built)
    lazy.take_offline()
    assert not any(lazy.salvage().values())
    lazy.bring_online()
    assert unbuilt_files(lazy) == waiting

    # A clone shares the body, still unbuilt, and reads the same bytes.
    clone = lazy.clone("ro")
    assert unbuilt_files(clone) == waiting
    for path in waiting:
        assert clone.fs.resolve(path).body is lazy.fs.resolve(path).body
        assert clone.read(path) == built.read(path)
    assert unbuilt_files(lazy) == waiting

    # Reading returns equal bytes every time and leaves the body unbuilt; a
    # snapshot ships real bytes, so a moved volume arrives built and equal
    # to the one that never was lazy, while its source stays unbuilt.
    for path in waiting:
        node = lazy.fs.resolve(path)
        assert node.data == node.data == built.fs.resolve(path).data
        assert type(node.body) is ProvisionedBody
    assert unbuilt_files(lazy) == waiting
    assert lazy.snapshot() == built.snapshot()
    moved = Volume.from_snapshot(lazy.snapshot())
    assert unbuilt_files(lazy) == waiting and not unbuilt_files(moved)
    assert metadata(moved) == metadata(built)


def test_a_snapshot_of_unbuilt_bodies_ships_their_bytes():
    volume = Volume("v", "v")
    node = volume.create_under(volume.fs.root, "f", ProvisionedBody(b"ab", 5))
    assert volume.snapshot_bytes == 5 + 256 * 2
    record = volume.snapshot()["nodes"][1]
    assert (record["path"], record["data"]) == ("/f", b"ababa")
    assert Volume.from_snapshot(volume.snapshot()).fs.resolve("/f").body == b"ababa"
    assert type(node.body) is ProvisionedBody


def test_stores_over_an_unbuilt_body_account_from_its_size():
    volume = Volume("v", "v", quota_bytes=1500)
    node = volume.create_under(volume.fs.root, "f", ProvisionedBody(b"x", 1000))
    with pytest.raises(QuotaExceeded):
        volume.write_vnode(node.number, b"y" * 1501)
    assert type(node.body) is ProvisionedBody  # refused on its length alone
    volume.write_vnode(node.number, b"y" * 1400)
    assert (volume.used_bytes, node.size, node.version) == (1400, 1400, 2)
    other = volume.create_under(volume.fs.root, "g", ProvisionedBody(b"z", 60))
    volume.write("/g", b"")
    assert (volume.used_bytes, other.body) == (1400, b"")

    fs = UnixFileSystem()
    fs.insert_under(fs.root, "log", FileType.FILE).body = ProvisionedBody(b"ab", 3)
    assert fs.total_bytes == 3
    fs.append("/log", b"!")
    assert (fs.read("/log"), fs.total_bytes) == (b"aba!", 4)


# -- what provisioning costs ----------------------------------------------------


def test_provisioning_budget(monkeypatch):
    """A 2 x 25 campus with the ledger's file counts: nothing built, a few
    MiB traced, and no path resolution per file."""
    resolves = []
    in_populate = []
    resolve, populate = UnixFileSystem.resolve, ITCSystem.populate

    def counted_resolve(self, path, *args, **kwargs):
        if in_populate and not kwargs.get("_hops"):
            resolves.append(path)
        return resolve(self, path, *args, **kwargs)

    def counted_populate(self, *args, **kwargs):
        in_populate.append(True)
        try:
            return populate(self, *args, **kwargs)
        finally:
            in_populate.pop()

    monkeypatch.setattr(UnixFileSystem, "resolve", counted_resolve)
    monkeypatch.setattr(ITCSystem, "populate", counted_populate)
    campus = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=25))
    tracemalloc.start()
    try:
        provision_campus(campus, hot_files=12, cold_files=30,
                         shared_files=40, binary_files=20)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    files = directories = 0
    for server in campus.servers:
        for volume in server.volumes.values():
            if volume.volume_id == "root":
                continue
            for node in volume._inodes.values():
                if node.file_type == FileType.FILE:
                    files += 1
                    assert type(node.body) is ProvisionedBody, volume.volume_id
                elif node is not volume.fs.root:
                    directories += 1
    assert (files, directories) == (50 * 42 + 60, 50 * 2 + 2)
    assert len(resolves) <= directories + files
    # 1.6 MiB traced when written (31.9 MiB with every body built); 3x.
    assert peak < 5 * 2 ** 20


# -- reads through Fetch and the Venus cache ------------------------------------

HOME = "/vice/usr/alice"


def provisioned_home(campus, files=4):
    """Alice's home volume loaded with unbuilt bodies under /p."""
    tree = {f"/p/f{i}": ProvisionedBody(b"ab%d" % i, 900 + 37 * i)
            for i in range(files)}
    campus.populate(campus.volume("u-alice"), tree, owner="alice")
    return tree


def server_bodies(campus, tree):
    volume = campus.volume("u-alice")
    return {path: volume.fs.resolve(path).body for path in tree}


def cached(workstation, path):
    return workstation.venus.cache.lookup("/usr/alice" + path)


def read_everywhere(campus, tree, workstations):
    for ws in workstations:
        session = alice_session(campus, ws)
        for path, body in sorted(tree.items()):
            for _ in range(2):  # a miss, then a cache hit
                assert run(campus, session.read_file(HOME + path)) == bytes(body)


def test_reads_build_per_open_and_keep_nothing_built():
    # Unsealed payloads (every campus day): the body object itself travels
    # from the server's inode into each Venus cache, and stays unbuilt.
    campus = small_campus(workstations_per_cluster=3,
                          functional_payload_crypto=False)
    tree = provisioned_home(campus)
    read_everywhere(campus, tree, range(3))
    assert server_bodies(campus, tree) == tree
    for ws in range(3):
        for path, body in tree.items():
            assert cached(campus.workstation(ws), path).data is body

    # Sealed payloads: the server builds the bytes to seal them and keeps
    # none; the client caches what it unsealed, its own copy off the wire.
    campus = small_campus(functional_payload_crypto=True)
    tree = provisioned_home(campus)
    sealed = []
    server_node = campus.server(0).node
    protect = server_node._protect_payload

    def recording(conn, sender, payload):
        wire = protect(conn, sender, payload)
        if type(payload) is ProvisionedBody:
            sealed.append((conn.connection_id, bytes(payload), wire))
        return wire

    server_node._protect_payload = recording
    read_everywhere(campus, tree, [1])
    assert server_bodies(campus, tree) == tree
    for path, body in tree.items():
        data = cached(campus.workstation(1), path).data
        assert type(data) is bytes and data == bytes(body)

    # Every Fetch sealed the built bytes, and the MAC still catches a
    # tampered payload.
    assert len(sealed) == len(tree)
    venus = campus.workstation(1).venus
    conn = venus._connections[("alice", "server0")]
    receiver = campus.workstation(1).host.name
    for connection_id, plain, wire in sealed:
        assert connection_id == conn.connection_id
        assert conn.decrypt(receiver, wire) == plain
        damaged = bytearray(wire)
        damaged[len(damaged) // 2] ^= 0x5A
        with pytest.raises(IntegrityError):
            conn.decrypt(receiver, bytes(damaged))


def test_a_store_over_a_shared_body_reaches_a_cache_only_by_its_break():
    campus = small_campus(functional_payload_crypto=False)
    tree = provisioned_home(campus, files=1)
    (path, body), = tree.items()
    old = bytes(body)
    reader = campus.workstation(1)
    assert run(campus, alice_session(campus, 1).read_file(HOME + path)) == old
    entry = cached(reader, path)
    assert entry.data is body  # one object, shared with the server's inode

    # ws0 stores over the file; step until ws1 hears the break.
    writer = campus.sim.process(
        alice_session(campus, 0).write_file(HOME + path, b"new bytes"))
    node = campus.volume("u-alice").fs.resolve(path)
    breaks = reader.venus.callback_breaks_received
    window = 0
    while reader.venus.callback_breaks_received == breaks:
        campus.sim.step()
        assert bytes(entry.data) == old
        window += node.body == b"new bytes"
    assert window  # the server held the new bytes while ws1 read the old
    assert (body.stamp, body.size) == (b"ab0", 900) and entry.data is body
    campus.sim.run_until_complete(writer)

    fetches = reader.venus.fetches
    assert run(campus, alice_session(campus, 1).read_file(HOME + path)) == b"new bytes"
    assert reader.venus.fetches == fetches + 1
