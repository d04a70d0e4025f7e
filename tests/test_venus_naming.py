"""Venus names every object in one step, and what it puts on the wire.

The paper's two designs differ in who walks the pathname (§5.3): the
prototype's Venus sends the full path and the server walks it; the revised
Venus walks cached directories itself and sends fids.  The session below
pins, call by call, what each design's Venus sends for a scripted session
on a 2 × 2 campus, and the virtual time it ends at.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError
from tests.helpers import run, small_campus

HOME = "/vice/usr/alice"
SRC = Path(repro.__file__).parent


def _scripted_session(mode, validation=None):
    """Run the session; return (calls, outcomes, repr of the end time).

    Each call is ``workstation>server Procedure(sorted arg keys)``; each
    outcome is the step's name, plus the error class when it was refused.
    """
    campus = small_campus(mode=mode, validation=validation, clusters=2,
                          workstations_per_cluster=2)
    calls, outcomes = [], []
    for workstation in campus.workstations:
        real = workstation.venus.node.call

        def call(conn, procedure, args, *rest, _ws=workstation.name, _real=real, **kw):
            calls.append(f"{_ws}>{conn.server_name} {procedure}({','.join(sorted(args))})")
            return (yield from _real(conn, procedure, args, *rest, **kw))

        workstation.venus.node.call = call
    near, far, near2, far2 = (campus.login(ws, "alice", "alice-pw")
                              for ws in ("ws0-0", "ws1-0", "ws0-1", "ws1-1"))

    def step(name, op):
        try:
            run(campus, op)
        except ReproError as err:
            outcomes.append(f"{name}: {type(err).__name__}")
            return False
        outcomes.append(name)
        return True

    step("mkdir", near.mkdir(f"{HOME}/d"))
    step("create", near.write_file(f"{HOME}/d/f", b"one"))
    step("read far", far.read_file(f"{HOME}/d/f"))
    step("overwrite", near.write_file(f"{HOME}/d/f", b"two"))
    step("re-read far", far.read_file(f"{HOME}/d/f"))
    step("stat far", far.stat(f"{HOME}/d/f"))
    step("listdir far", far.listdir(f"{HOME}/d"))
    step("rename file", near.rename(f"{HOME}/d/f", f"{HOME}/d/g"))
    # A pathname rename names both ends in one call: no hint for the new one.
    step("rename across volumes", near.rename(f"{HOME}/d/g", "/vice/g"))
    step("symlink", near.symlink(f"{HOME}/d/s", f"{HOME}/d/g"))
    step("read via symlink", far.read_file(f"{HOME}/d/s"))
    step("get acl", near.get_acl(f"{HOME}/d"))
    step("set lock", near.set_lock(f"{HOME}/d/g", exclusive=True))
    step("release lock", near.release_lock(f"{HOME}/d/g"))
    moved = step("rename dir", near.rename(f"{HOME}/d", f"{HOME}/e"))
    where = f"{HOME}/e" if moved else f"{HOME}/d"
    step("remove symlink", near.unlink(f"{where}/s"))
    step("remove", near.unlink(f"{where}/g"))
    step("rmdir", near.rmdir(where))

    step("seed clone", near.write_file(f"{HOME}/r", b"release"))
    run(campus, campus.server(0).release_readonly("u-alice", ["server0", "server1"]))
    for who, session in (("near", near2), ("far", far2)):
        step(f"stat clone {who}", session.stat(f"{HOME}/r"))
        step(f"list clone {who}", session.listdir(HOME))
        step(f"read clone {who}", session.read_file(f"{HOME}/r"))
    step("write through clone", far2.write_file(f"{HOME}/r", b"written"))
    return calls, outcomes, repr(campus.sim.now)


# Recorded before Venus named objects in one step; that step must not move
# a call, an argument key or a tick of virtual time.
WIRE_PINS = {
    ("prototype", None): (
        "35.032552775000006",
        [
            "rename across volumes: CrossDeviceLink",
            "symlink: InvalidArgument", "read via symlink: FileNotFound",
            "rename dir: InvalidArgument", "remove symlink: FileNotFound",
        ],
        [
            "ws0-0>server0 GetCustodian(path)",
            "ws0-0>server0 MakeDir(path)",
            "ws0-0>server0 Store(path)",
            "ws1-0>server1 GetCustodian(path)",
            "ws1-0>server0 Fetch(path)",
            "ws0-0>server0 ValidateCache(path,version)",
            "ws0-0>server0 Store(path)",
            "ws1-0>server0 ValidateCache(path,version)",
            "ws1-0>server0 Fetch(path)",
            "ws1-0>server0 GetStatus(path)",
            "ws1-0>server0 ListDir(path)",
            "ws0-0>server0 Rename(new,old)",
            "ws0-0>server0 Rename(new,old)",
            "ws0-0>server0 MakeSymlink(path,target)",
            "ws1-0>server0 Fetch(path)",
            "ws0-0>server0 GetACL(path)",
            "ws0-0>server0 SetLock(exclusive,path)",
            "ws0-0>server0 ReleaseLock(path)",
            "ws0-0>server0 Rename(new,old)",
            "ws0-0>server0 Remove(path)",
            "ws0-0>server0 Remove(path)",
            "ws0-0>server0 RemoveDir(path)",
            "ws0-0>server0 Store(path)",
            "ws0-1>server0 GetCustodian(path)",
            "ws0-1>server0 GetStatus(path)",
            "ws0-1>server0 ListDir(path)",
            "ws0-1>server0 Fetch(path)",
            "ws1-1>server1 GetCustodian(path)",
            "ws1-1>server1 GetStatus(path)",
            "ws1-1>server1 ListDir(path)",
            "ws1-1>server1 Fetch(path)",
            "ws1-1>server0 Store(path)",
        ],
    ),
    ("revised", None): (
        "2.1568345999999923",
        ["rename across volumes: CrossDeviceLink"],
        [
            "ws0-0>server0 GetCustodian(path)",
            "ws0-0>server0 MakeDirByFid(name,parent)",
            "ws0-0>server0 FetchDir(fid)",
            "ws0-0>server0 CreateByFid(name,parent)",
            "ws1-0>server1 GetCustodian(path)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws0-0>server0 StoreByFid(fid)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 GetCustodian(path)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 SymlinkByFid(name,parent,target)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 LookupVnode(fid,name)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws0-0>server0 GetACLByFid(fid)",
            "ws0-0>server0 SetLock(exclusive,path)",
            "ws0-0>server0 ReleaseLock(path)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 FetchDir(fid)",
            "ws0-0>server0 RemoveByFid(name,parent)",
            "ws0-0>server0 RemoveByFid(name,parent)",
            "ws0-0>server0 RemoveDirByFid(name,parent)",
            "ws0-0>server0 CreateByFid(name,parent)",
            "ws0-1>server0 GetCustodian(path)",
            "ws0-1>server0 FetchDir(fid)",
            "ws0-1>server0 GetStatusByFid(fid)",
            "ws0-1>server0 FetchByFid(fid)",
            "ws1-1>server1 GetCustodian(path)",
            "ws1-1>server1 FetchDir(fid)",
            "ws1-1>server1 GetStatusByFid(fid)",
            "ws1-1>server1 FetchByFid(fid)",
            "ws1-1>server0 StoreByFid(fid)",
        ],
    ),
    ("revised", "check-on-open"): (
        "2.348889974999987",
        ["rename across volumes: CrossDeviceLink"],
        [
            "ws0-0>server0 GetCustodian(path)",
            "ws0-0>server0 MakeDirByFid(name,parent)",
            "ws0-0>server0 FetchDir(fid)",
            "ws0-0>server0 CreateByFid(name,parent)",
            "ws1-0>server1 GetCustodian(path)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 StoreByFid(fid)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 GetStatusByFid(fid)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 GetCustodian(path)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 SymlinkByFid(name,parent,target)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 FetchDir(fid)",
            "ws1-0>server0 LookupVnode(fid,name)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 ValidateByFid(fid,version)",
            "ws1-0>server0 FetchByFid(fid)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 GetACLByFid(fid)",
            "ws0-0>server0 SetLock(exclusive,path)",
            "ws0-0>server0 ReleaseLock(path)",
            "ws0-0>server0 RenameByFid(new_name,new_parent,old_name,old_parent)",
            "ws0-0>server0 FetchDir(fid)",
            "ws0-0>server0 RemoveByFid(name,parent)",
            "ws0-0>server0 ValidateByFid(fid,version)",
            "ws0-0>server0 RemoveByFid(name,parent)",
            "ws0-0>server0 RemoveDirByFid(name,parent)",
            "ws0-0>server0 CreateByFid(name,parent)",
            "ws0-1>server0 GetCustodian(path)",
            "ws0-1>server0 FetchDir(fid)",
            "ws0-1>server0 GetStatusByFid(fid)",
            "ws0-1>server0 ValidateByFid(fid,version)",
            "ws0-1>server0 ValidateByFid(fid,version)",
            "ws0-1>server0 FetchByFid(fid)",
            "ws1-1>server1 GetCustodian(path)",
            "ws1-1>server1 FetchDir(fid)",
            "ws1-1>server1 GetStatusByFid(fid)",
            "ws1-1>server1 ValidateByFid(fid,version)",
            "ws1-1>server1 ValidateByFid(fid,version)",
            "ws1-1>server1 FetchByFid(fid)",
            "ws1-1>server0 StoreByFid(fid)",
        ],
    ),
}


@pytest.mark.parametrize("mode,validation", sorted(WIRE_PINS, key=str),
                         ids=lambda value: str(value))
def test_the_client_wire_is_pinned(mode, validation):
    end, refused, expected = WIRE_PINS[mode, validation]
    calls, outcomes, now = _scripted_session(mode, validation)
    assert calls == expected
    assert [outcome for outcome in outcomes if ":" in outcome] == refused
    assert now == end


# ----------------------------------------------------------------------
# the forks stay gone
# ----------------------------------------------------------------------

def _reads(path, attribute):
    """``(enclosing function, owner expression)`` of every read of
    ``<owner>.<attribute>`` in one module, in source order."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attribute
                    and isinstance(child.ctx, ast.Load)):
                found.append((function, ast.unparse(child.value)))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_venus_reads_no_mode():
    for path in sorted((SRC / "venus").glob("*.py")):
        assert _reads(path, "mode") == [], path.name


def test_only_the_naming_step_reads_naming():
    readers = {function for path in sorted((SRC / "venus").glob("*.py"))
               for function, owner in _reads(path, "naming") if owner == "self"}
    assert readers == {"_name_object", "_name_entry"}


def test_only_the_retry_loop_retargets():
    # One referral and failover rule: plain calls, striped reads and locks
    # all retry in Venus._routed, and every call goes out through _call.
    paths = sorted((SRC / "venus").glob("*.py"))
    assert {function for path in paths for function, owner in _reads(path, "_retarget")
            if owner == "self"} == {"_routed"}
    assert [function for path in paths for function, owner in _reads(path, "call")
            if owner == "self.node"] == ["_call"]


def test_the_file_server_forks_on_mode_only_for_the_section_5_1_rows():
    # Per-file mode bits, directory rename and symlinks: behaviour the
    # designs differ in.  Traversal is cost data; naming is each call's.
    functions = [function for function, _owner
                 in _reads(SRC / "vice" / "fileserver.py", "mode")]
    assert functions == ["_check", "_rename_core", "make_symlink"]
