"""System-level configuration.

One :class:`SystemConfig` describes an entire campus deployment: which of
the paper's two implementations to run, the cluster topology, cache and
security settings.  It is the only place a campus setting is declared,
defaulted, derived from ``mode`` and refused; the components a campus is
built from take the config and read it.  The defaults model the
prototype-era deployment unit — a cluster of ~20 workstations per server
(§5.2's operating point) — scaled down to sizes a laptop simulates quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # import kept lazy: plain runs never load the module
    from repro.vice.erasure import ErasureConfig

from repro.errors import InvalidArgument
from repro.faults.plan import FaultPlan
from repro.rpc.costs import EncryptionMode, RpcCosts
from repro.vice.costs import ViceCosts
from repro.vice.replication import ReplicationConfig

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build an :class:`~repro.system.itc.ITCSystem`."""

    # Which implementation (see repro.vice.server.ViceServer's table).
    mode: str = "revised"
    # Cache-validation policy; None derives the mode's default
    # (prototype -> check-on-open, revised -> callback).
    validation: Optional[str] = None

    # Topology (Fig. 2-2): clusters on a backbone, one server per cluster.
    clusters: int = 2
    workstations_per_cluster: int = 5

    # Security.
    encryption: str = EncryptionMode.HARDWARE
    # Actually run the cipher over file payloads (demonstrably secure but
    # Python-expensive); long synthetic runs turn this off and keep only
    # the virtual-time charge.
    functional_payload_crypto: bool = True
    # Let in-process transfers hand the plaintext across after verifying the
    # tag (wire bytes are unchanged); turn off to force a full keystream
    # unseal at every hop, as a real network receiver would do.
    payload_fast_path: bool = True

    # Venus cache.
    cache_max_files: int = 500
    cache_max_bytes: int = 20_000_000
    # Store-through policy: "on-close" (the paper's choice) or "deferred"
    # (the §3.2 alternative, kept for the ablation bench).
    write_policy: str = "on-close"

    # Prototype Unix limits: per-client server processes.
    max_server_processes: Optional[int] = 64

    # Cost-model overrides (None -> the mode's calibrated defaults).
    rpc_costs: Optional[RpcCosts] = None
    vice_costs: Optional[ViceCosts] = None

    # Read-write volume replication (see repro.vice.replication).  None —
    # the default — builds no controller, no heartbeats and no replica
    # hooks, keeping the campus byte-identical to pre-replication builds.
    # Revised mode only.
    replication: Optional[ReplicationConfig] = None

    # Erasure-coded storage (see repro.vice.erasure).  None — the default
    # — imports nothing and keeps the campus byte-identical; an
    # ErasureConfig stripes every volume into k data + m parity fragments
    # on distinct servers.  Revised mode only; exclusive with replication.
    erasure: Optional["ErasureConfig"] = None

    # Fault injection (see repro.faults).  None keeps every fault hook off
    # and the campus byte-identical to a build without the faults package;
    # a plan — even an empty "clean" one — installs the scheduler and the
    # availability tracker at construction time.
    fault_plan: Optional[FaultPlan] = None

    seed: int = 0

    def validate(self) -> None:
        """Refuse a setting or combination the campus cannot be built from.

        The one place a campus is refused; :class:`ITCSystem` calls it
        before constructing anything.
        """
        for setting, value, accepted in (
            ("mode", self.mode, ["prototype", "revised"]),
            ("validation", self.validation_policy, ["callback", "check-on-open"]),
            ("write policy", self.write_policy, ["deferred", "on-close"]),
            ("encryption", self.encryption, sorted(self.rpc_cost_model.encrypt_rates)),
        ):
            if value not in accepted:
                raise InvalidArgument(
                    f"unknown {setting} {value!r}; choose from {accepted}"
                )
        for setting, value in (("clusters", self.clusters),
                               ("workstations per cluster", self.workstations_per_cluster)):
            if value < 1:
                raise InvalidArgument(f"{setting} must be at least 1, got {value!r}")
        if self.mode == "prototype":
            if self.replication is not None:
                raise InvalidArgument(
                    "read-write replication requires the revised implementation"
                )
            if self.erasure is not None:
                raise InvalidArgument(
                    "erasure coding requires the revised implementation"
                )
        if self.erasure is not None:
            if self.replication is not None:
                raise InvalidArgument(
                    "erasure coding and read-write replication are exclusive"
                )
            # One server per cluster, one stripe slot per server.
            if self.clusters < self.erasure.width:
                raise InvalidArgument(
                    f"ErasureConfig({self.erasure.data}+{self.erasure.parity})"
                    f" needs {self.erasure.width} servers, have {self.clusters}"
                )

    @property
    def total_workstations(self) -> int:
        """Workstation count across all clusters."""
        return self.clusters * self.workstations_per_cluster

    # ------------------------------------------------------------------
    # What ``mode`` implies (the table in repro.vice.server's docstring),
    # expanded here once; components copy what they read at run time.
    # ------------------------------------------------------------------

    @property
    def validation_policy(self) -> str:
        """``validation``, or the mode's own: check-on-open / callback."""
        if self.validation is not None:
            return self.validation
        return "check-on-open" if self.mode == "prototype" else "callback"

    @property
    def naming(self) -> str:
        """Who walks a pathname (§5.3): the server, sent the ``"path"``
        (prototype), or Venus, which sends the ``"fid"`` (revised)."""
        return "path" if self.mode == "prototype" else "fid"

    @property
    def transport(self) -> str:
        """Reliable byte stream (prototype) or datagrams (revised)."""
        return "stream" if self.mode == "prototype" else "datagram"

    @property
    def server_structure(self) -> str:
        """A Unix process per client (prototype; they share no memory, hence
        its dedicated lock process) or one process of LWPs (revised)."""
        return "process" if self.mode == "prototype" else "lwp"

    @property
    def cache_policy(self) -> str:
        """Venus cache bound: file count (prototype) or bytes (revised)."""
        return "count" if self.mode == "prototype" else "space"

    @property
    def rpc_cost_model(self) -> RpcCosts:
        """``rpc_costs``, or the mode's calibrated RPC cost model."""
        if self.rpc_costs is not None:
            return self.rpc_costs
        costs = RpcCosts.prototype() if self.mode == "prototype" else RpcCosts.revised()
        if self.replication is not None:
            # Replicated campuses exist to ride through failures: fixed-interval
            # retransmission hammers a dead or partitioned server in lockstep,
            # so give them exponential backoff with seeded jitter by default.
            costs = costs.with_(retransmit_backoff=2.0, retransmit_jitter=0.1)
        return costs

    @property
    def vice_cost_model(self) -> ViceCosts:
        """``vice_costs``, or the mode's calibrated server cost model."""
        if self.vice_costs is not None:
            return self.vice_costs
        return ViceCosts.prototype() if self.mode == "prototype" else ViceCosts.revised()

    @property
    def rpc_settings(self) -> Dict[str, Any]:
        """The :class:`~repro.rpc.node.RpcNode` keywords every node on the
        campus shares — servers, workstations and the controller alike."""
        return {
            "costs": self.rpc_cost_model,
            "transport": self.transport,
            "encryption": self.encryption,
            "functional_payload_crypto": self.functional_payload_crypto,
            "payload_fast_path": self.payload_fast_path,
        }
