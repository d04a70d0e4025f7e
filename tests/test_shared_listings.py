"""One directory listing per directory state, shared by everyone who holds it.

Vice builds a directory's ``{name: {"fid", "type"}}`` listing once and
keeps it on the inode (``Volume.listing``); every FetchDir / ListDir reply
and every Venus ``dir_cache`` that receives it in-process shares that one
dict.  Three things keep that safe:

* every change to a directory's entries, and a replica's renumbering of a
  child, drops the memo, so the listing served is always a fresh build;
* a campus day really shares it: the caches holding one (fid, version)
  hold one object;
* nobody who was handed a listing writes into it.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.storage.unixfs import FileType
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.vice.ids import make_fid
from repro.vice.volume import Volume
from repro.workload import provision_campus, run_campus_day

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def fresh_listing(volume, directory):
    """What the listing must read: a build from the entries as they are."""
    return {
        name: {"fid": make_fid(volume.volume_id, child.number), "type": child.file_type}
        for name, child in directory.entries.items()
    }


def assert_served_fresh(volume, step):
    """Every directory serves a fresh build; serving leaves each memo
    built, so the next step starts with every listing cached."""
    for path, node in volume.fs.walk("/"):
        if node.file_type == FileType.DIRECTORY:
            served = volume.listing(node)
            assert served == fresh_listing(volume, node), f"{step}: {path}"
            assert list(served) == list(node.entries), f"{step}: {path} order"
            assert volume.listing(node) is served, f"{step}: {path} not kept"


def replica_write(path, vnode):
    return lambda v: v.apply_replica_op(
        {"op": "write", "path": path, "vnode": vnode, "version": 7}, b"r")


# Each step changes one listing one way; after each, every listing is
# checked against a fresh build.  The replica write over an existing file
# renumbers it in place (no entry changes, no directory version), so only
# ``_renumber``'s own invalidation can catch it.
SCRIPT = [
    ("create", lambda v: v.create_file("/a/f1", b"one")),
    ("mkdir", lambda v: v.mkdir("/a/sub")),
    ("symlink", lambda v: v.symlink("/b/link", "/a/f0")),
    ("rename, same parent", lambda v: v.rename("/a/f0", "/a/g0")),
    ("rename, across parents", lambda v: v.rename("/a/g0", "/b/g0")),
    ("rename over a file", lambda v: v.rename("/b/g0", "/a/f1")),
    ("unlink", lambda v: v.unlink("/b/link")),
    ("rmdir", lambda v: v.rmdir("/a/sub")),
    ("unlink and rmdir a tree", lambda v: (
        v.unlink("/b/tree/deep/x"), v.rmdir("/b/tree/deep"), v.rmdir("/b/tree"))),
    ("replica write, renumbered in place", replica_write("/a/f1", 500)),
    ("replica write, created", replica_write("/b/new", 501)),
    ("replica mkdir", lambda v: v.apply_replica_op(
        {"op": "mkdir", "path": "/b/rdir", "vnode": 502})),
    ("replica symlink", lambda v: v.apply_replica_op(
        {"op": "symlink", "path": "/b/rdir/l", "target": "/a", "vnode": 503})),
    ("replica rename", lambda v: v.apply_replica_op(
        {"op": "rename", "old": "/b/new", "new": "/b/rdir/new"})),
    ("replica unlink", lambda v: v.apply_replica_op({"op": "unlink", "path": "/a/f1"})),
    ("replica rmdir", lambda v: v.apply_replica_op({"op": "rmdir", "path": "/a"})),
]


def seeded_volume():
    volume = Volume("v9", "test", owner="u")
    volume.mkdir("/a")
    volume.mkdir("/b")
    volume.create_file("/a/f0", b"zero")
    volume.makedirs("/b/tree/deep")
    volume.create_file("/b/tree/deep/x", b"x")
    return volume


class TestTheListingIsAlwaysFresh:
    def test_scripted_changes(self):
        volume = seeded_volume()
        assert_served_fresh(volume, "seeded")
        for step, change in SCRIPT:
            change(volume)
            assert_served_fresh(volume, step)

    def test_a_snapshot_load_and_a_clone_build_their_own(self):
        volume = seeded_volume()
        assert_served_fresh(volume, "seeded")
        moved = Volume.from_snapshot(volume.snapshot())
        assert_served_fresh(moved, "snapshot load")
        clone = volume.clone("v9-ro")
        assert_served_fresh(clone, "clone")
        # Fresh inodes hold fresh listings (the clone's fids name the clone).
        assert clone.listing(clone.fs.root) is not volume.listing(volume.fs.root)
        assert clone.listing(clone.fs.root)["a"]["fid"] == make_fid("v9-ro", 2)

    def test_an_old_listing_is_replaced_never_edited(self):
        volume = seeded_volume()
        before = volume.listing(volume.fs.root)
        snapshot = {name: dict(entry) for name, entry in before.items()}
        volume.create_file("/c", b"c")
        assert volume.listing(volume.fs.root) is not before
        assert before == snapshot


directories = st.sampled_from(["", "/d"])
names = st.sampled_from(["f", "d"])
steps = st.lists(
    st.tuples(
        st.sampled_from(["create", "unlink", "mkdir", "rmdir", "rename",
                         "symlink", "replica-write", "replica-mkdir", "snapshot",
                         "clone"]),
        directories, names, directories, names,
    ),
    min_size=10, max_size=40,
)


def apply_step(volume, index, op, dir_a, name_a, dir_b, name_b):
    """Apply one random step; returns the volume later steps work on."""
    a, b = f"{dir_a}/{name_a}", f"{dir_b}/{name_b}"
    if op == "create":
        volume.create_file(a, b"data")
    elif op == "unlink":
        volume.unlink(a)
    elif op == "mkdir":
        volume.mkdir(a)
    elif op == "rmdir":
        volume.rmdir(a)
    elif op == "rename":
        volume.rename(a, b)
    elif op == "symlink":
        volume.symlink(a, b)
    elif op == "replica-write":
        replica_write(a, 1000 + index)(volume)
    elif op == "replica-mkdir":
        volume.apply_replica_op({"op": "mkdir", "path": a, "vnode": 1000 + index})
    elif op == "snapshot":
        return Volume.from_snapshot(volume.snapshot())
    elif op == "clone":
        assert_served_fresh(volume.clone(f"{volume.volume_id}-ro"), "clone")
    return volume


@given(steps)
@settings(max_examples=200, deadline=None)
def test_mixed_changes_always_serve_a_fresh_listing(script):
    volume = Volume("v9", "test", owner="u")
    for index, step in enumerate(script):
        try:
            volume = apply_step(volume, index, *step)
        except ReproError:
            pass  # a missing or taken name: the listing must still be right
        assert_served_fresh(volume, f"step {index} {step}")


# ----------------------------------------------------------------------
# a campus day shares one listing per directory state
# ----------------------------------------------------------------------

def test_every_cache_holding_one_directory_version_holds_one_object():
    campus = ITCSystem(SystemConfig(clusters=1, workstations_per_cluster=10,
                                    functional_payload_crypto=False))
    users = provision_campus(campus, hot_files=8, cold_files=12,
                             shared_files=12, binary_files=8)
    summary = run_campus_day(campus, users, duration=600.0, warmup=0.0)
    assert summary["failures"] == 0
    holders = {}
    for ws in campus.workstations:
        for directory in ws.venus.dir_cache.values():
            holders.setdefault((directory.fid, directory.version), []).append(
                directory.entries)
    shared = [held for held in holders.values() if len(held) > 1]
    assert len(shared) >= 3
    for held in shared:
        assert all(entries is held[0] for entries in held)


# ----------------------------------------------------------------------
# nobody writes into a listing it was handed
# ----------------------------------------------------------------------

_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__",
             "__delitem__"}


def _listing_writes(source, attributes):
    """Every write into a listing in ``source``: an assignment or ``del``
    whose subscript chain starts at a listing, or a mutating method call
    on one.  A listing is ``<x>.<attribute>`` for the given attributes,
    ``<x>["entries"]``, the value of ``<x>.listing(...)``, or a local name
    bound to any of these."""
    tree = ast.parse(source)
    found = []

    def is_listing(node, bound):
        if isinstance(node, ast.Attribute):
            return node.attr in attributes
        if isinstance(node, ast.Subscript):
            return (isinstance(node.slice, ast.Constant)
                    and node.slice.value == "entries")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr == "listing"
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return is_listing(node.value, bound)
        return isinstance(node, ast.Name) and node.id in bound

    def inside_listing(node, bound):
        """``node`` is a listing or a subscript (at any depth) of one."""
        while not is_listing(node, bound):
            if not isinstance(node, ast.Subscript):
                return False
            node = node.value
        return True

    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and is_listing(node.value, bound):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(function):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and inside_listing(target.value, bound)):
                    found.append((node.lineno, ast.unparse(target)))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and inside_listing(node.func.value, bound)):
                found.append((node.lineno, ast.unparse(node.func)))
    return sorted(set(found))


def _modules():
    # Venus and Virtue hold listings as ``.entries`` (a cached directory);
    # in Vice ``.entries`` is an inode's own name -> inode map, and the
    # listing is ``.listing``.
    for package, attributes in (("venus", {"entries", "listing"}),
                                ("virtue", {"entries", "listing"}),
                                ("vice", {"listing"})):
        for path in sorted((SRC / package).glob("*.py")):
            yield path, attributes


@pytest.mark.parametrize("path,attributes", list(_modules()),
                         ids=lambda value: getattr(value, "name", ""))
def test_no_listing_is_written_into(path, attributes):
    assert _listing_writes(path.read_text(), attributes) == []


def test_the_guard_sees_each_kind_of_write():
    source = '''
def f(self, result, directory):
    directory.entries["x"] = 1
    del directory.entries["x"]
    result["entries"]["x"]["fid"] = "v.1"
    directory.entries.update({})
    listing = volume.listing(inode)
    listing.pop("x")
    entries = result["entries"]
    entries["y"] = 2
    fresh = directory.entries.get("x")
'''
    writes = _listing_writes(source, {"entries", "listing"})
    assert [line for line, _ in writes] == [3, 4, 5, 6, 8, 10]
