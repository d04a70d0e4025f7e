"""Erasure-coded volume storage: striped k+m fragments over GF(256).

The paper buys availability with whole copies — read-only replication in
§3.2 and (our PR 7 generalization) N-way read-write replicas, paying N×
storage for f = N−1 fault tolerance.  This module completes the other
half of the redundancy axis: a systematic Reed–Solomon code stripes each
file into ``k`` data + ``m`` parity fragments placed on distinct
servers, so the stripe survives any ``m`` failures at ``(k+m)/k``
storage, bought with reconstruction CPU and repair traffic.

Protocol summary
----------------

* Every coded volume has ``k + m`` **stripe members** (the location
  entry's ``replicas`` list; slot order fixes each member's fragment
  index forever).  Member 0 starts as **custodian** (primary): it holds
  the full metadata tree like a replica, but file *data* lives only as
  fragments — member ``i`` keeps fragment ``i`` of every file.
* A store lands whole at the custodian, which encodes the ``k + m``
  fragments once and hands them to the replication agent's one write
  fan-out (``ReplicateOp`` with a ``frag`` record, member ``i`` getting
  fragment ``i``).  The store succeeds at ``max(k, majority)`` members
  — never fewer holders than suffice to reconstruct, so an acked write
  is always readable.
* Venus fetches fragments from ``k`` members in parallel (custodian
  first — its reply is the authoritative status and registers the
  callback promise) and reassembles.  When members are dead or
  partitioned it falls back to **degraded reads**: backfill from parity
  holders and reconstruct from any ``k`` of ``k + m``
  (``erasure.<host>.degraded_reads``).  A whole-file ``FetchByFid`` of
  a striped file is refused: the inode holds no body to return.
* Heartbeats, leases, death declaration, promotion and rejoin are the
  one control plane of :mod:`repro.vice.replication`, which reads from
  each location entry that these members are slots: it promotes
  **without shrinking the stripe** (slots must keep their indices) and
  orders the custodian to **rebuild** a dead slot onto a spare server —
  the ``RebuildStripe`` handler here: gather any ``k`` fragment sets,
  re-encode the missing index, ship a coded copy
  (``erasure.<host>.rebuild_bytes``, ``stripe_repairs``).  A rejoining
  member is demoted and its slot rebuilt in place the same way.

What lives here is only what differs from whole copies: the GF(256)
codec, stripe placement, the three fragment RPC handlers and
:func:`stripe_health`.  Nothing here is imported unless
``SystemConfig.erasure`` is set, so plain campuses (and replicated
ones) remain byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import (
    InvalidArgument,
    NotCustodian,
    ReproError,
    ServerUnavailable,
)
from repro.rpc import marshal
from repro.rpc.connection import Connection
from repro.storage.unixfs import FileType
from repro.vice.ids import split_fid
from repro.vice.location import LocationDatabase
from repro.vice.protection import Rights
from repro.vice.replication import ReplicationController, ServerReplication

__all__ = [
    "ErasureConfig",
    "FragmentService",
    "decode",
    "encode",
    "fragment_length",
    "plan_stripe",
    "serve_fragments",
    "stripe_health",
]


# ----------------------------------------------------------------------
# GF(256) arithmetic, vectorized the same way as the PR 1 cipher fast
# path: per-coefficient 256-byte translation tables turn a field
# scalar-multiply of a whole fragment into one bytes.translate call,
# and fragment XOR runs whole-buffer through int.from_bytes.
# ----------------------------------------------------------------------

_GF_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, the classic RS polynomial

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
del _x, _i


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


# coefficient -> 256-byte translate table for y = c * x, built lazily so
# only the coefficients a given (k, m) geometry actually uses are paid for.
_MUL_TABLES: Dict[int, bytes] = {}


def _mul_table(c: int) -> bytes:
    table = _MUL_TABLES.get(c)
    if table is None:
        table = bytes(_gf_mul(c, v) for v in range(256))
        _MUL_TABLES[c] = table
    return table


def _xor(a: bytes, b: bytes) -> bytes:
    """Whole-buffer XOR of two equal-length fragments (cipher idiom)."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def _scale_xor(acc: Optional[bytes], coeff: int, frag: bytes) -> Optional[bytes]:
    """acc ^= coeff * frag over GF(256), whole-buffer."""
    if coeff == 0:
        return acc
    piece = frag if coeff == 1 else frag.translate(_mul_table(coeff))
    return piece if acc is None else _xor(acc, piece)


def _parity_coeff(row: int, col: int, k: int) -> int:
    """Cauchy generator entry for parity row ``row``, data column ``col``.

    With x_j = k + j and y_i = i the denominators x_j ^ y_i are nonzero
    and every k×k submatrix of [I_k ; C] is invertible, so any ``k`` of
    the ``k + m`` fragments reconstruct the data (requires k + m <= 256).
    """
    return _gf_inv((k + row) ^ col)


def fragment_length(length: int, k: int) -> int:
    """Bytes per fragment for a ``length``-byte file striped k ways."""
    return -(-length // k) if length else 0


def encode(data: bytes, k: int, m: int) -> List[bytes]:
    """Stripe ``data`` into k data + m parity fragments (systematic)."""
    shard_len = fragment_length(len(data), k)
    shards = [
        bytes(data[i * shard_len:(i + 1) * shard_len]).ljust(shard_len, b"\0")
        for i in range(k)
    ]
    frags = list(shards)
    for row in range(m):
        acc: Optional[bytes] = None
        for col in range(k):
            acc = _scale_xor(acc, _parity_coeff(row, col, k), shards[col])
        frags.append(acc if acc is not None else bytes(shard_len))
    return frags


def _row_for(index: int, k: int) -> List[int]:
    """Generator-matrix row that produced fragment ``index``."""
    if index < k:
        return [1 if col == index else 0 for col in range(k)]
    return [_parity_coeff(index - k, col, k) for col in range(k)]


def _invert(matrix: List[List[int]]) -> List[List[int]]:
    """Invert a k×k GF(256) matrix by Gauss-Jordan elimination."""
    k = len(matrix)
    aug = [list(row) + [1 if c == r else 0 for c in range(k)]
           for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular fragment matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = _gf_inv(aug[col][col])
        aug[col] = [_gf_mul(inv, v) for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v ^ _gf_mul(factor, p)
                          for v, p in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def decode(fragments: Dict[int, bytes], k: int, m: int, length: int) -> bytes:
    """Reconstruct the original bytes from any ``k`` of the fragments.

    ``fragments`` maps fragment index (0..k+m-1) to fragment bytes;
    ``length`` is the true file length (fragments are zero-padded).
    """
    if length == 0:
        return b""
    if all(i in fragments for i in range(k)):
        return b"".join(fragments[i] for i in range(k))[:length]
    chosen = sorted(i for i in fragments if i < k + m)[:k]
    if len(chosen) < k:
        raise ValueError(
            f"need {k} fragments to reconstruct, have {len(chosen)}"
        )
    inverse = _invert([_row_for(index, k) for index in chosen])
    shard_len = len(fragments[chosen[0]])
    shards: List[bytes] = []
    for row in range(k):
        acc: Optional[bytes] = None
        for col, index in enumerate(chosen):
            acc = _scale_xor(acc, inverse[row][col], fragments[index])
        shards.append(acc if acc is not None else bytes(shard_len))
    return b"".join(shards)[:length]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErasureConfig:
    """The stripe geometry of erasure-coded storage (``SystemConfig.erasure``)."""

    # Data fragments per stripe: a file is readable from any `data` of
    # the `data + parity` members.
    data: int = 4
    # Parity fragments: how many simultaneous member losses a stripe
    # survives without losing readability.
    parity: int = 2

    def __post_init__(self):
        if self.data < 1:
            raise ValueError("erasure data fragment count must be at least 1")
        if self.parity < 1:
            raise ValueError("erasure parity fragment count must be at least 1")
        if self.data + self.parity > 256:
            raise ValueError("GF(256) stripes support at most 256 fragments")

    @property
    def width(self) -> int:
        """Stripe width: total members per coded volume."""
        return self.data + self.parity

    @property
    def storage_overhead(self) -> float:
        """Raw-to-logical byte ratio, the (k+m)/k coding tax."""
        return self.width / self.data


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------


def plan_stripe(
    location: LocationDatabase,
    server_names: List[str],
    custodian: str,
    width: int,
) -> List[str]:
    """Pick ``width`` distinct servers for a new stripe.

    The custodian takes slot 0; remaining slots go to the least-loaded
    servers (fewest stripe memberships already recorded in the location
    database), ties broken by ring order from the custodian so placement
    stays deterministic and spreads like the replication ring.
    """
    if width > len(server_names):
        raise InvalidArgument(
            f"a {width}-wide stripe needs {width} servers, have "
            f"{len(server_names)}"
        )
    load = {name: 0 for name in server_names}
    for entry in location.entries():
        for name in entry.replicas:
            if name in load:
                load[name] += 1
    start = server_names.index(custodian)
    ring = [server_names[(start + i) % len(server_names)]
            for i in range(len(server_names))]
    rank = {name: i for i, name in enumerate(ring)}
    rest = sorted(ring[1:], key=lambda name: (load[name], rank[name]))
    return [custodian] + rest[:width - 1]


# ----------------------------------------------------------------------
# the fragment data path
# ----------------------------------------------------------------------


class FragmentService:
    """What a stripe member serves beside its replication agent.

    ``FetchFragment`` for clients, ``FetchFragmentVolume`` and
    ``RebuildStripe`` for controller-ordered repair, counted on the agent
    (``server.replication``) and published as ``erasure.<host>.*``.
    Everything else is the agent's own and serves coded volumes
    unchanged (metadata mutations propagate exactly like replication's —
    full copies of an empty-data tree are cheap).
    """

    def __init__(self, agent: ServerReplication):
        self.agent = agent
        self.server = server = agent.server

        node = server.node
        node.register("FetchFragment", self._fetch_fragment_handler)
        node.register("FetchFragmentVolume", self._fetch_fragment_volume_handler)
        node.register("RebuildStripe", self._rebuild_stripe_handler)

        name = server.host.name
        sim = server.sim
        sim.metrics.counter(f"erasure.{name}.rebuild_bytes",
                            lambda: agent.rebuild_bytes)
        sim.metrics.counter(f"erasure.{name}.stripe_repairs",
                            lambda: agent.stripe_repairs)
        sim.metrics.counter(f"erasure.{name}.fragment_reads",
                            lambda: agent.fragment_reads)

    # ------------------------------------------------------------------
    # read path (every member serves its own fragment)
    # ------------------------------------------------------------------

    def _fetch_fragment_handler(self, conn: Connection, args, payload):
        """Serve this member's fragment of one file to a client.

        Unlike whole-file fetches this is answered by secondaries too —
        a degraded read *is* the custodian being unreachable.  The
        custodian's reply carries the callback promise; fragment replies
        from other members are advisory data only.
        """
        fid = args["fid"]
        volume_id, vnode = split_fid(fid)
        volume = self.server.volumes.get(volume_id)
        if volume is None or volume.erasure_shape is None:
            # Not (or no longer) a stripe member — e.g. a rebuild moved
            # this slot to a spare and the client's hint is stale.  Refer
            # to the current custodian, as volume_by_id does, so the
            # client retries against fresh membership instead of failing.
            entry = self.server.location.entry_for_volume(volume_id)
            raise NotCustodian(entry.custodian)
        files = self.server.files
        inode = volume.inode_by_vnode(vnode)
        files._check(volume, inode, conn.username, Rights.READ)
        frag = volume.fragments.get(inode.number, b"")
        yield from self.server.host.compute(
            self.server.costs.fetch_base_cpu
            + self.server.costs.acl_check_cpu
            + len(frag) * self.server.costs.per_byte_cpu
        )
        yield from self.server.host.disk.access(len(frag), sequential=True)
        if volume.replica_role != "secondary":
            files._maybe_promise(volume, inode, conn)
        status = files._status_of(volume, inode, conn.username)
        status["frag_index"] = volume.erasure_index
        self.agent.fragment_reads += 1
        self.server.note_volume_access(volume, conn, len(frag))
        return status, bytes(frag)

    # ------------------------------------------------------------------
    # rebuild (controller-ordered, custodian-driven)
    # ------------------------------------------------------------------

    def _fetch_fragment_volume_handler(self, conn: Connection, args, payload):
        """Ship this member's whole fragment set (rebuild source)."""
        self.server._require_service(conn)
        volume = self.agent._local_volume(args["volume_id"])
        blob = marshal.dumps({
            "index": volume.erasure_index,
            "frags": {str(v): f for v, f in sorted(volume.fragments.items())},
            "versions": {
                str(v): volume._inodes[v].version
                for v in sorted(volume.fragments)
                if v in volume._inodes
            },
        })
        yield from self.server.host.disk.access(len(blob), sequential=True)
        yield from self.server.host.compute(
            len(blob) * self.server.costs.per_byte_cpu
        )
        return {"bytes": len(blob)}, blob

    def _rebuild_stripe_handler(self, conn: Connection, args, payload):
        """Reconstruct one lost fragment slot and ship it to ``target``.

        Runs at the custodian: gather whole fragment sets from enough
        live members (``sources``, chosen by the controller), re-derive
        the missing index per file, and ship a coded volume copy to the
        target through the ordinary ``ReceiveVolume`` path.
        """
        self.server._require_service(conn)
        volume = self.agent._local_volume(args["volume_id"])
        k, m = volume.erasure_shape
        target_index = args["index"]
        got: Dict[int, Dict[int, bytes]] = {
            volume.erasure_index: dict(volume.fragments)
        }
        versions: Dict[int, Dict[int, int]] = {}
        gathered = 0
        for name in args.get("sources", []):
            if len(got) >= k:
                break
            if name == self.server.host.name:
                continue
            try:
                pconn = yield from self.server.peer(name)
                reply, blob = yield from self.server.node.call(
                    pconn, "FetchFragmentVolume",
                    {"volume_id": volume.volume_id},
                    expect_bytes=max(1024, volume.fragment_bytes),
                )
            except ReproError:
                continue
            shipment = marshal.loads(blob)
            index = shipment["index"]
            got[index] = {int(v): f for v, f in shipment["frags"].items()}
            versions[index] = {
                int(v): ver for v, ver in shipment.get("versions", {}).items()
            }
            gathered += len(blob)
        if len(got) < k:
            raise ServerUnavailable(
                f"volume {volume.volume_id!r}: only {len(got)} of {k}"
                f" fragment sets reachable for rebuild"
            )
        rebuilt: Dict[int, bytes] = {}
        sizes: Dict[int, int] = {}
        recoded = 0
        for vnode, true_len in sorted(volume.fragment_true_sizes.items()):
            want = volume._inodes[vnode].version if vnode in volume._inodes else None
            pieces = {
                index: frs[vnode] for index, frs in got.items()
                if vnode in frs and (
                    index == volume.erasure_index
                    or versions.get(index, {}).get(vnode) == want
                )
            }
            if len(pieces) < k:
                continue  # a straggler member is behind; the next pass heals it
            data = decode(pieces, k, m, true_len)
            rebuilt[vnode] = encode(data, k, m)[target_index]
            sizes[vnode] = true_len
            recoded += len(data)
        # Re-encoding the stripe is custodian CPU; shipping is the usual
        # snapshot path, charged at the receiving end.
        yield from self.server.host.compute(
            0.010 + recoded * self.server.costs.per_byte_cpu
        )
        snap = volume.snapshot()
        snap["replica_role"] = "secondary"
        snap["erasure_index"] = target_index
        snap["fragments"] = {str(v): f for v, f in sorted(rebuilt.items())}
        snap["fragment_sizes"] = {str(v): n for v, n in sorted(sizes.items())}
        blob = marshal.dumps(snap)
        tconn = yield from self.server.peer(args["target"])
        yield from self.server.node.call(
            tconn, "ReceiveVolume", {"role": "secondary"},
            payload=blob, expect_bytes=len(blob),
        )
        self.agent.rebuild_bytes += gathered + len(blob)
        self.agent.stripe_repairs += 1
        return {"ok": True, "repair_bytes": gathered + len(blob)}, b""


def serve_fragments(controller: ReplicationController,
                    agents: Iterable[ServerReplication]) -> None:
    """Add the fragment data path and its instruments to a coded campus."""
    for agent in agents:
        FragmentService(agent)
    controller.sim.metrics.counter("erasure.controller", lambda: {
        "rebuilds": controller.rebuilds,
        "rebuild_failures": controller.rebuild_failures,
        "deaths_declared": controller.deaths_declared,
        "promotions": controller.promotions,
        "rejoins": controller.rejoins,
    })


# ----------------------------------------------------------------------
# health (benchmark/test-side inspection, not part of the protocol)
# ----------------------------------------------------------------------


def stripe_health(campus) -> float:
    """Fraction of stripe slots that are live and current (1.0 = whole).

    A slot is healthy when its server is up and its copy holds a
    correctly-versioned fragment for every file the custodian knows.
    """
    controller = campus.replication_controller
    location = (campus._location_master if controller is None
                else controller.location)
    healthy = 0
    total = 0
    by_name = {server.host.name: server for server in campus.servers}
    for entry in location.entries():
        if not entry.erasure or not entry.replicas:
            continue
        custodian = by_name.get(entry.custodian)
        reference = (custodian.volumes.get(entry.volume_id)
                     if custodian is not None else None)
        if reference is None:
            total += len(entry.replicas)
            continue
        expected = {
            vnode: node.version
            for vnode, node in reference._inodes.items()
            if node.file_type == FileType.FILE
        }
        for name in entry.replicas:
            total += 1
            server = by_name.get(name)
            if server is None or not server.host.up:
                continue
            volume = server.volumes.get(entry.volume_id)
            if volume is None or volume.erasure_shape is None:
                continue
            if all(
                vnode in volume.fragments
                and vnode in volume._inodes
                and volume._inodes[vnode].version == version
                for vnode, version in expected.items()
            ):
                healthy += 1
    return healthy / total if total else 1.0
