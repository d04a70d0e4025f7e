"""System-level configuration.

One :class:`SystemConfig` describes an entire campus deployment: which of
the paper's two implementations to run, the cluster topology, hardware
speeds and security settings.  The defaults model the prototype-era
deployment unit — a cluster of ~20 workstations per server (§5.2's
operating point) — scaled down to sizes a laptop simulates quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # import kept lazy: plain runs never load the module
    from repro.vice.erasure import ErasureConfig

from repro.errors import InvalidArgument
from repro.faults.plan import FaultPlan
from repro.rpc.costs import EncryptionMode, RpcCosts
from repro.vice.costs import ViceCosts
from repro.vice.replication import ReplicationConfig
from repro.venus.venus import VenusCosts

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

    # Hardware. Cluster servers were bigger machines than workstations.
    server_cpu_speed: float = 2.0
    workstation_cpu_speed: float = 1.0
    backbone_bandwidth_bps: float = 10_000_000.0
    cluster_bandwidth_bps: float = 10_000_000.0

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
    flush_delay: float = 30.0
    # Deferred write-back retries before a failed flush is declared lost.
    # 0 reproduces the historical single silent attempt's timing exactly.
    flush_retry_limit: int = 2

    # Prototype Unix limits: per-client server processes.
    max_server_processes: Optional[int] = 64

    # Cost-model overrides (None -> the mode's calibrated defaults).
    rpc_costs: Optional[RpcCosts] = None
    vice_costs: Optional[ViceCosts] = None
    venus_costs: Optional[VenusCosts] = None

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
        """Refuse a combination the campus cannot be built from.

        The one place campus-level rules live; :class:`ITCSystem` calls
        it before constructing anything.  (A misspelt ``mode``,
        ``validation`` or ``write_policy`` is refused by the component
        that interprets it.)
        """
        if self.clusters < 1:
            raise InvalidArgument(
                f"clusters must be at least 1, got {self.clusters!r}"
            )
        encrypt_rates = (self.rpc_costs or RpcCosts()).encrypt_rates
        if self.encryption not in encrypt_rates:
            raise InvalidArgument(
                f"unknown encryption {self.encryption!r};"
                f" choose from {sorted(encrypt_rates)}"
            )
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

    def with_(self, **changes) -> "SystemConfig":
        """A copy with selected fields replaced."""
        return replace(self, **changes)

    @classmethod
    def prototype(cls, **overrides) -> "SystemConfig":
        """The 1985 prototype configuration."""
        return cls(mode="prototype", **overrides)

    @classmethod
    def revised(cls, **overrides) -> "SystemConfig":
        """The revised (post-§5.3) configuration."""
        return cls(mode="revised", **overrides)

    @property
    def total_workstations(self) -> int:
        """Workstation count across all clusters."""
        return self.clusters * self.workstations_per_cluster
