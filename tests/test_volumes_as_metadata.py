"""Volumes and stripes travel as metadata.

A shipped volume image, fragment set or call body is sized, not built:
``marshal.wire_size`` is the exact length ``marshal.dumps`` would write,
a ``marshal.Marshalled`` value crosses a charged connection by reference,
and a receiving server adopts the bodies and fragments it is handed.
These tests pin the sizer against the encoder, one move's wire bytes and
virtual time against the values recorded before shipping was sized, and
what a released replica, a rebuilt spare slot and a moved copy hold.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import ITCSystem, SystemConfig
from repro.rpc import marshal
from repro.storage.unixfs import FileType, ProvisionedBody
from repro.vice.erasure import ErasureConfig, ProvisionedFragment
from repro.workload import provision_campus
from tests.helpers import alice_session, run, small_campus

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1
HOME = "/vice/usr/alice"


# -- the sizer ------------------------------------------------------------------


class Counted:
    """Stands for ``size`` bytes like a provisioned body, and counts every
    time it is built."""

    built = 0

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __bytes__(self):
        Counted.built += 1
        return b"c" * self.size


_STAMPS = st.sampled_from([b"x", b"hot ", b"\x7fELF"])
_BODIES = st.builds(ProvisionedBody, _STAMPS, st.integers(0, 400))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(INT64_MIN, INT64_MAX),
    st.floats(allow_nan=False), st.text(max_size=24), st.binary(max_size=64),
    _BODIES,
    st.builds(lambda body, shape, index: ProvisionedFragment(
        body, shape[0], shape[1], index % sum(shape)),
        _BODIES, st.sampled_from([(1, 1), (2, 1), (4, 2)]), st.integers(0, 5)),
    st.builds(Counted, st.integers(0, 300)),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=12), children, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_wire_size_is_the_encoded_length_and_builds_nothing(value):
    Counted.built = 0
    size = marshal.wire_size(value)
    assert Counted.built == 0
    shipped = marshal.Marshalled(value)
    assert (len(shipped), Counted.built) == (size, 0)
    assert size == len(marshal.dumps(value))
    assert bytes(shipped) == marshal.dumps(value)


_REJECTED = st.one_of(
    st.integers(INT64_MAX + 1, 2 * INT64_MAX),
    st.integers(2 * INT64_MIN, INT64_MIN - 1),
    st.builds(lambda text, at: text[:at] + "\ud800" + text[at:],
              st.text(max_size=8), st.integers(0, 8)),
    st.builds(lambda key: {key: 1},
              st.one_of(st.integers(), st.binary(max_size=4), st.none())),
    st.builds(lambda text: {text + "\udfff": b""}, st.text(max_size=4)),
)


@settings(max_examples=200, deadline=None)
@given(_REJECTED, _VALUES, st.sampled_from(["bare", "list", "dict", "tuple"]))
def test_wire_size_rejects_exactly_what_dumps_rejects(bad, good, where):
    value = {"bare": bad, "list": [good, bad], "dict": {"ok": good, "bad": bad},
             "tuple": (bad, good)}[where]
    with pytest.raises(marshal.MarshalError):
        marshal.dumps(value)
    Counted.built = 0
    with pytest.raises(marshal.MarshalError):
        marshal.wire_size(value)
    with pytest.raises(marshal.MarshalError):
        len(marshal.Marshalled(value))


def test_a_length_past_the_format_is_rejected_unbuilt():
    huge = ProvisionedBody(b"x", 2 ** 32)
    with pytest.raises(marshal.MarshalError):
        marshal.wire_size({"data": huge})
    assert marshal.wire_size(ProvisionedBody(b"x", 2 ** 32 - 1)) == 5 + 2 ** 32 - 1


def test_carried_is_the_value_or_its_parse():
    record = {"nodes": [{"data": ProvisionedBody(b"ab", 3)}]}
    shipped = marshal.Marshalled(record)
    assert marshal.carried(shipped) is record
    assert marshal.carried(bytes(shipped)) == {"nodes": [{"data": b"aba"}]}


# -- one move, before and after ------------------------------------------------

# Recorded at the commit before shipments were sized (1c7d91b): the bytes
# every segment carried and the virtual seconds one move took, per regime.
MOVE_PINS = {
    "charged": (98_166, 0.2892652000000002),
    "fast": (98_238, 0.2893258000000002),
}


def moved_campus(regime):
    campus = small_campus(clusters=2, workstations_per_cluster=1,
                          functional_payload_crypto=regime != "charged")
    volume = campus.volume("u-alice")
    campus.populate(volume, {
        **{f"/bin/p{i}": ProvisionedBody(b"\x7fELF", 3000 + 517 * i)
           for i in range(6)},
        "/notes/a": b"written bytes " * 40,
        "/notes/empty": b"",
    }, owner="alice")
    run(campus, alice_session(campus).write_file(f"{HOME}/notes/b", b"stored" * 99))
    return campus


def wire_bytes(campus):
    return sum(s.bytes_carried for s in campus.network.segments.values())


@pytest.mark.parametrize("regime", sorted(MOVE_PINS))
def test_a_move_costs_what_it_cost_when_the_image_was_built(regime):
    campus = moved_campus(regime)
    source = campus.volume("u-alice")
    before, start = wire_bytes(campus), campus.sim.now
    run(campus, campus.server(0).move_volume("u-alice", "server1"))
    assert (wire_bytes(campus) - before, campus.sim.now - start) == MOVE_PINS[regime]

    # The moved copy shares the source's unbuilt bodies (in process, no
    # regime runs the cipher here but "fast", which keeps the value too).
    moved = campus.server(1).volumes["u-alice"]
    for path, node in source.fs.walk("/"):
        if node.file_type == FileType.FILE:
            assert moved.fs.resolve(path).body is node.body
    assert run(campus, alice_session(campus).read_file(f"{HOME}/bin/p2")) == \
        bytes(ProvisionedBody(b"\x7fELF", 3000 + 517 * 2))


def test_a_store_on_a_moved_copy_leaves_its_source_untouched():
    campus = moved_campus("charged")
    source = campus.volume("u-alice")
    old = {path: (node.body, bytes(node.body)) for path, node in source.fs.walk("/")
           if node.file_type == FileType.FILE}
    run(campus, campus.server(0).move_volume("u-alice", "server1"))
    session = alice_session(campus)
    for path in ("/bin/p0", "/notes/a"):
        run(campus, session.write_file(HOME + path, b"replaced at the new custodian"))
    moved = campus.server(1).volumes["u-alice"]
    assert moved.read("/bin/p0") == moved.read("/notes/a") == \
        b"replaced at the new custodian"
    for path, (body, data) in old.items():
        node = source.fs.resolve(path)
        assert node.body is body and bytes(node.body) == data
        if path not in ("/bin/p0", "/notes/a"):
            assert moved.fs.resolve(path).body is body  # still shared
    assert type(source.fs.resolve("/bin/p0").body) is ProvisionedBody


# -- released replicas and rebuilt slots hold nothing built ------------------------


def provisioned_bodies(volume):
    return {path: node.body for path, node in volume.fs.walk("/")
            if node.file_type == FileType.FILE and node.size}


@pytest.mark.parametrize("crypto", [False, True], ids=["charged", "fast"])
def test_a_released_replica_shares_the_clones_unbuilt_bodies(crypto):
    campus = ITCSystem(SystemConfig(clusters=3, workstations_per_cluster=1,
                                    functional_payload_crypto=crypto))
    provision_campus(campus, hot_files=2, cold_files=2, shared_files=2,
                     binary_files=5)
    names = [server.host.name for server in campus.servers]
    run(campus, campus.server(0).release_readonly("unix", names))
    clone = campus.server(0).volumes["unix-ro"]
    bodies = provisioned_bodies(clone)
    assert len(bodies) == 5
    for server in campus.servers:
        held = provisioned_bodies(server.volumes["unix-ro"])
        assert held.keys() == bodies.keys()
        for path, body in held.items():
            assert type(body) is ProvisionedBody and body is bodies[path]


def test_a_rebuilt_spare_slot_holds_unbuilt_fragments():
    campus = small_campus(clusters=4, workstations_per_cluster=1,
                          functional_payload_crypto=False,
                          erasure=ErasureConfig(data=2, parity=1))
    campus.populate(campus.volume("u-alice"), {
        f"/bin/p{i}": ProvisionedBody(b"\x7fELF", 2000 + 333 * i) for i in range(4)
    }, owner="alice")
    entry, _rest = campus.replication_controller.location.resolve("/usr/alice")
    victim = entry.replicas[1]
    campus.server(victim).host.crash()
    campus.run(until=campus.sim.now + 60.0)
    assert campus.replication_controller.rebuilds >= 1

    entry, _rest = campus.replication_controller.location.resolve("/usr/alice")
    spare = entry.replicas[1]  # slot 1, rebuilt onto the spare
    assert spare != victim
    rebuilt = campus.server(spare).volumes["u-alice"]
    assert rebuilt.erasure_index == 1 and len(rebuilt.fragments) == 4
    for fragment in rebuilt.fragments.values():
        assert type(fragment) is ProvisionedFragment and fragment.index == 1
    reader = alice_session(campus, 1)
    assert run(campus, reader.read_file(f"{HOME}/bin/p3")) == \
        bytes(ProvisionedBody(b"\x7fELF", 2000 + 333 * 3))


def test_releasing_the_binaries_everywhere_builds_no_body():
    """``/unix`` released to all 20 servers of a 20 x 5 campus: its 30
    binaries come to ~2.6 MiB, which 19 replicas would each build."""
    campus = ITCSystem(SystemConfig(clusters=20, workstations_per_cluster=5,
                                    functional_payload_crypto=False))
    provision_campus(campus, hot_files=2, cold_files=2, shared_files=2)
    names = [server.host.name for server in campus.servers]
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        run(campus, campus.server(0).release_readonly("unix", names))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all("unix-ro" in server.volumes for server in campus.servers)
    # 0.36 MiB grown and 0.37 MiB peak when written (50.3 MiB grown and
    # 53.0 MiB peak while every replica kept the bytes).
    assert after - before < 512 * 2 ** 10
    assert peak - before < 512 * 2 ** 10
