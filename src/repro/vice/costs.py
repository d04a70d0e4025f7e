"""Per-operation cost model for the Vice file server.

Together with :class:`repro.rpc.costs.RpcCosts` these constants are the
knobs that calibrate the simulation to the paper's measured anchors; see
``repro.system.calibration`` for the fitting rationale.  Times are seconds
on a reference 1-unit CPU (cluster servers run at ``cpu_speed`` ~2).

The prototype/revised split encodes the paper's §5.3 findings:

* the prototype walks full pathnames **on the server** (a per-component CPU
  charge) and keeps Vice status in ``.admin`` shadow files (an extra disk
  access on status-bearing calls);
* the revised server resolves fids against in-memory vnode caches and
  leaves pathname traversal to Venus, so it charges none.

Both are data here, not forks on ``mode`` in the handlers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ViceCosts"]


@dataclass(frozen=True)
class ViceCosts:
    """Prices charged by file-server handlers."""

    # Server-side pathname traversal, per path component (prototype; the
    # revised server leaves the walk to Venus and charges none).
    traverse_component_cpu: float = 0.0
    # Fid lookup against the in-memory vnode index (revised).
    fid_lookup_cpu: float = 0.0006
    # Base CPU of a status / validate call, beyond traversal.
    status_cpu: float = 0.0025
    validate_cpu: float = 0.002
    # Base CPU of fetch / store, beyond traversal and per-byte work.
    fetch_base_cpu: float = 0.006
    store_base_cpu: float = 0.008
    # Buffer copies and checksumming, per byte moved.
    per_byte_cpu: float = 2.5e-7
    # Directory mutation (create/remove/rename entries).
    dir_op_cpu: float = 0.005
    # ACL evaluation (CPS walk + list scan) per protected call.
    acl_check_cpu: float = 0.0008
    # Lock table manipulation.
    lock_cpu: float = 0.0015
    # Prototype keeps Vice status in a `.admin` shadow file: one extra
    # small disk access on each status-bearing call (0: status lives in
    # the in-memory vnode cache, as in the revised server).
    admin_file_bytes: int = 256
    # Server-side pathname interpretation reads directories from disk
    # (namei with a small buffer cache): disk reads per path component.
    traversal_disk_reads_per_component: float = 0.0

    @classmethod
    def prototype(cls) -> "ViceCosts":
        """Costs as measured against the 1985 prototype.

        The prototype served every call from a user-level process via full
        pathname interpretation against the Unix file system plus a
        ``.admin`` shadow-file read; per-call CPU is an order of magnitude
        above the revised design's (that gap *is* the §5.3 redesign).
        """
        return cls(
            traverse_component_cpu=0.150,
            status_cpu=0.160,
            validate_cpu=0.140,
            fetch_base_cpu=0.360,
            store_base_cpu=0.400,
            per_byte_cpu=2.4e-6,
            dir_op_cpu=0.240,
            acl_check_cpu=0.024,
            lock_cpu=0.050,
            traversal_disk_reads_per_component=1.5,
        )

    @classmethod
    def revised(cls) -> "ViceCosts":
        """Costs after the §5.3 reimplementation changes."""
        return cls(admin_file_bytes=0)
