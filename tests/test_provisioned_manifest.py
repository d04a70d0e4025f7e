"""Provisioned files held as a directory manifest answer as inodes do.

``ITCSystem.populate`` leaves each new file in its directory's manifest
(``Volume.provision``) and builds its inode only when that one file is
asked for.  These tests load the same trees into a manifest volume and
into a reference volume built the eager way (``create_under`` per file,
in populate's order), apply the same random steps to both, and after
every step compare everything a client or an administrator can read:
listings with their order, vnode numbers and paths, versions and mtimes,
byte and file counts, and snapshots with their wire sizes.  Whole-volume
readers must build nothing while they do.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.rpc import marshal
from repro.storage import pathutil
from repro.storage.unixfs import FileType, ProvisionedBody
from repro.vice.volume import Volume
from tests.helpers import small_campus

_DIRS = ["", "/a", "/a/b", "/c"]
_FILES = ["f0", "f1", "f2", "f3", "g"]
_PATHS = st.builds(lambda d, n: f"{d}/{n}", st.sampled_from(_DIRS),
                   st.sampled_from(_FILES + ["a", "b"]))
_BODIES = st.one_of(
    st.builds(ProvisionedBody, st.sampled_from([b"x", b"hot "]),
              st.integers(min_value=0, max_value=300)),
    st.binary(max_size=40),
)
_TREES = st.dictionaries(
    st.builds(lambda d, n: f"{d}/{n}", st.sampled_from(_DIRS), st.sampled_from(_FILES)),
    _BODIES, min_size=1, max_size=16)
_VNODES = st.integers(min_value=1, max_value=40)
_DATA = st.binary(max_size=60)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("resolve"), _PATHS),
    st.tuples(st.just("fid"), _VNODES),
    st.tuples(st.just("status"), _PATHS),
    st.tuples(st.just("store"), _PATHS, _DATA),
    st.tuples(st.just("store_fid"), _VNODES, _DATA),
    st.tuples(st.just("create"), _PATHS, _DATA),
    st.tuples(st.just("unlink"), _PATHS),
    st.tuples(st.just("rename"), _PATHS, _PATHS),
    st.tuples(st.just("mkdir"), _PATHS),
    st.tuples(st.just("rmdir"), _PATHS),
    st.tuples(st.sampled_from(["snapshot", "clone", "salvage", "tick"])),
), min_size=10, max_size=30)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def eager_populate(volume, tree, owner):
    """The per-file loop ``populate`` replaced, for one copy."""
    parent_path = None
    for path, body in sorted(tree.items()):
        path = pathutil.normalize(path)
        dirname, name = pathutil.split(path)
        if dirname != parent_path:
            parent_path = dirname
            parent = volume.makedirs(dirname, owner=owner)
        if name in parent.entries:
            volume.write(path, body, owner=owner)
        else:
            volume.create_under(parent, name, body, owner=owner)


def built(volume):
    """Inodes built so far for files a manifest holds."""
    count = 0
    stack = [volume.fs.root]
    while stack:
        directory = stack.pop()
        if directory.manifest is not None:
            count += sum(len(run.built or ()) for run in directory.manifest.runs)
        stack.extend(child for child in directory.entries.values()
                     if child.file_type == FileType.DIRECTORY)
    return count


def listings(volume):
    """Every directory's listing, in order, reached through listings."""
    found = {}

    def walk(path, directory):
        listing = volume.listing(directory)
        found[path] = (directory.stat(), list(listing.items()))
        for name, entry in listing.items():
            if entry["type"] == FileType.DIRECTORY:
                walk(pathutil.join(path, name), volume.fs.child(directory, name))

    walk("/", volume.fs.root)
    return found


def state(volume):
    snapshot = volume.snapshot()
    return {
        "snapshot": marshal.dumps(snapshot),
        "wire_size": marshal.wire_size(snapshot),
        "listings": listings(volume),
        "vnodes": {vnode: volume.path_of(vnode) for vnode in volume._inodes},
        "used_bytes": volume.used_bytes,
        "file_count": volume.file_count,
    }


def read_only(volume):
    """Whole-volume readers: their answers, and a check they build nothing."""
    before = built(volume)
    answer = state(volume)
    clone = volume.clone(volume.volume_id + "-ro")
    answer["clone"] = state(clone)
    assert built(volume) == before
    return answer


def outcome(action):
    try:
        value = action()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return value.stat() if hasattr(value, "stat") else value


def apply(volume, step, clock):
    """One step; returns (what it answered, the volume later steps use)."""
    op, *args = step
    if op == "resolve":
        return outcome(lambda: volume.resolve(args[0], follow=False)), volume
    if op == "fid":
        return outcome(lambda: volume.inode_by_vnode(args[0])), volume
    if op == "status":
        return outcome(lambda: volume.fs.stat(args[0])), volume
    if op == "store":
        return outcome(lambda: volume.write(args[0], args[1])), volume
    if op == "store_fid":
        return outcome(lambda: volume.write_vnode(args[0], args[1])), volume
    if op == "create":
        return outcome(lambda: volume.create_file(args[0], args[1])), volume
    if op == "unlink":
        return outcome(lambda: volume.unlink(args[0])), volume
    if op == "rename":
        return outcome(lambda: volume.rename(args[0], args[1])), volume
    if op == "mkdir":
        return outcome(lambda: volume.mkdir(args[0])), volume
    if op == "rmdir":
        return outcome(lambda: volume.rmdir(args[0])), volume
    if op == "snapshot":
        snapshot = volume.snapshot()
        moved = Volume.from_snapshot(snapshot, clock=clock)
        assert marshal.dumps(moved.snapshot()) == marshal.dumps(snapshot)
        return None, moved
    if op == "clone":
        return read_only(volume)["clone"], volume
    if op == "salvage":
        volume.take_offline()
        before = built(volume)
        report = volume.salvage()
        assert built(volume) == before
        volume.bring_online()
        return report, volume
    clock.now += 1.5  # tick
    return None, volume


def compare(first, second, steps, between=2.0):
    """Load both trees into a manifest volume and an eager one, ``between``
    virtual seconds apart, then apply each step to both; they must answer
    and read alike throughout."""
    clock = Clock()
    campus = small_campus()
    lazy = campus.volume("u-alice")
    lazy.fs._clock = clock
    eager = Volume("u-alice", "usr.alice", clock=clock, owner="alice")
    assert state(lazy) == state(eager)

    campus.populate(lazy, first, owner="alice")
    eager_populate(eager, first, "alice")
    assert built(lazy) == 0
    clock.now = between
    campus.populate(lazy, second, owner="alice")
    eager_populate(eager, second, "alice")
    assert built(lazy) == len(set(first) & set(second))  # each stored over
    assert read_only(lazy) == read_only(eager)

    for step in steps:
        got, lazy = apply(lazy, step, clock)
        want, eager = apply(eager, step, clock)
        assert got == want, step
        assert read_only(lazy) == read_only(eager), step


@settings(max_examples=150, deadline=None)
@given(first=_TREES, second=_TREES, steps=_STEPS, between=st.sampled_from([0.0, 2.0]))
def test_a_manifest_volume_answers_as_the_eager_build(first, second, steps, between):
    compare(first, second, steps, between)


_BODY = ProvisionedBody(b"x", 7)


@pytest.mark.parametrize("steps", [
    # an entry before the manifest leaves, then a new one comes after it
    [("mkdir", "/c"), ("rename", "/a/b", "/c/b"), ("create", "/a/g", b"new")],
    [("unlink", "/a/b/f0"), ("rmdir", "/a/b"), ("mkdir", "/a/h"), ("create", "/a/g", b"")],
    # a provisioned name leaves and comes back; one is renamed over another
    [("unlink", "/a/f1"), ("create", "/a/f1", b"back"), ("rename", "/a/f2", "/a/f0"),
     ("rename", "/a/f1", "/a/b/f0"), ("snapshot",), ("rename", "/a/b", "/a/f2")],
    # fid lookups of files renamed out, over, and away
    [("rename", "/a/f0", "/c0"), ("fid", 4), ("rename", "/c0", "/a/f2"), ("fid", 4),
     ("fid", 6), ("store_fid", 4, b"s"), ("salvage",), ("clone",)],
], ids=["rename-out-before", "rmdir-before", "names-come-back", "fids"])
def test_order_and_fids_around_a_manifest(steps):
    first = {"/a/b/f0": _BODY, "/a/f0": _BODY, "/a/f1": b"bytes", "/a/f2": _BODY}
    second = {"/a/f3": _BODY, "/a/b/f1": _BODY}
    compare(first, second, steps)


def test_a_second_load_at_the_same_instant_keeps_names_findable():
    # Same owner, same mtime, the next vnodes: the new names still sort
    # below the last run's, so they start a run of their own.
    first = {"/a/f2": _BODY, "/a/f3": _BODY}
    second = {"/a/f0": _BODY, "/a/f1": _BODY, "/a/g": _BODY}
    steps = [("resolve", f"/a/{name}") for name in ("f0", "f1", "f2", "f3", "g")]
    compare(first, second, steps + [("unlink", "/a/f3"), ("unlink", "/a/f2"),
                                    ("unlink", "/a/f1"), ("unlink", "/a/f0"),
                                    ("unlink", "/a/g"), ("rmdir", "/a")],
            between=0.0)


def test_an_untouched_directory_builds_nothing_and_a_touch_builds_one():
    campus = small_campus()
    volume = campus.volume("u-alice")
    tree = {f"/d/f{i:02d}": ProvisionedBody(b"ab", 100 + i) for i in range(20)}
    campus.populate(volume, tree, owner="alice")
    directory = volume.resolve("/d")
    manifest = directory.manifest
    assert not directory.entries and manifest.count == 20
    assert [run.stamp for run in manifest.runs] == [b"ab"]  # one stamp, 20 sizes

    assert volume.fs.listdir("/d") == sorted(name[3:] for name in tree)
    assert len(volume.listing(directory)) == 20 and volume.file_count == 20
    Volume.from_snapshot(volume.snapshot())
    volume.clone("ro")
    assert built(volume) == 0

    node = volume.resolve("/d/f07")
    assert built(volume) == 1 and node.number == manifest.runs[0].first + 7
    assert volume.inode_by_vnode(node.number) is node
    assert volume.inode_by_vnode(node.number + 1).body.size == 108
    assert built(volume) == 2


def test_a_built_file_s_body_is_held_by_its_inode_alone():
    # A store replaces the inode's body; the run must not keep the old one.
    campus = small_campus()
    volume = campus.volume("u-alice")
    old = b"o" * 5000
    campus.populate(volume, {"/d/a": old, "/d/b": b"other"}, owner="alice")
    run = volume.resolve("/d").manifest.runs[0]
    assert run.stamp is None and run.bodies[0] is old  # bytes are held as given
    node = volume.resolve("/d/a")
    assert node.body is old and all(body is not old for body in run.bodies)
    clone = volume.clone("ro")
    volume.write("/d/a", b"new")
    assert clone.read("/d/a") == old and clone.read("/d/b") == b"other"
