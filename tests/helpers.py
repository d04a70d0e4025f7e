"""Shared builders for the test suite."""

from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.vice.protserver import ADMIN_GROUP, ProtectionServer


def small_campus(mode="revised", clusters=1, workstations_per_cluster=2, **overrides):
    """A small campus with one registered user and their home volume."""
    config = SystemConfig(
        mode=mode,
        clusters=clusters,
        workstations_per_cluster=workstations_per_cluster,
        **overrides,
    )
    campus = ITCSystem(config)
    campus.add_user("alice", "alice-pw")
    campus.create_user_volume("alice")
    return campus


def alice_session(campus, ws=0):
    """Alice logged in at the given workstation."""
    return campus.login(ws, "alice", "alice-pw")


def run(campus, generator, limit=1e9):
    """Drive one operation to completion."""
    return campus.run_op(generator, limit=limit)


def indexed_inodes(volume):
    """(vnode, inode) for every vnode in a volume's index, in vnode order;
    builds each provisioned file's inode."""
    index = volume._inodes
    return [(vnode, index[vnode]) for vnode in index]


def protserver_campus(clusters=2, **overrides):
    """A small campus whose server0 hosts the protection server, with alice
    a protection administrator."""
    campus = small_campus(clusters=clusters, workstations_per_cluster=1, **overrides)
    campus.add_group(ADMIN_GROUP, members=["alice"])
    ProtectionServer(campus.server(0))
    return campus


def prot_call(campus, ws, username, password, procedure, args):
    """Drive one protection-server RPC from a workstation."""
    workstation = campus.workstation(ws)
    workstation.login(username, password)
    venus = workstation.venus

    def go():
        conn = yield from venus._conn(username, "server0")
        result, _ = yield from venus.node.call(conn, procedure, args)
        return result

    return run(campus, go())
