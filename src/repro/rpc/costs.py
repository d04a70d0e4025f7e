"""Cost model for the RPC package.

These constants are the calibration surface of the whole reproduction: they
encode the relative prices of CPU, wire and crypto work that the paper's
measurements imply.  ``repro.system.calibration`` documents how the defaults
were fitted to the paper's absolute anchors (a ~1000 s local benchmark, 80 %
remote penalty, 40 % busiest-server CPU).

All times are seconds of work on a reference 1-unit CPU (see
:class:`repro.hosts.Host`); rates are bytes per second on the same scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["EncryptionMode", "RpcCosts"]


class EncryptionMode:
    """How connection traffic is protected, and at what CPU price."""

    NONE = "none"  # insecure: measurement baseline only
    SOFTWARE = "software"  # "software encryption is too slow to be viable"
    HARDWARE = "hardware"  # the VLSI chips the paper is waiting for


def _default_encrypt_rates() -> Dict[str, float]:
    return {
        EncryptionMode.NONE: float("inf"),
        EncryptionMode.SOFTWARE: 75_000.0,  # bytes/s: era software DES
        EncryptionMode.HARDWARE: 4_000_000.0,  # bytes/s: era DES chip
    }


@dataclass(frozen=True)
class RpcCosts:
    """Prices charged by the RPC layer (see module docstring)."""

    # Wire overhead of one RPC envelope beyond the marshalled body/payload.
    envelope_bytes: int = 96
    # CPU to build/parse one call at the client (stub, syscall crossing).
    client_stub_cpu: float = 0.003
    # CPU to demultiplex + dispatch one call at the server.
    server_dispatch_cpu: float = 0.004
    # One Unix context switch (prototype per-client process server).
    context_switch_cpu: float = 0.004
    # Switches per served call in the prototype (in to worker, out of worker).
    switches_per_call: int = 2
    # Connection establishment beyond the handshake messages themselves
    # (socket and per-connection state).  The one thing the prototype's byte
    # streams cost over the revised datagrams: calls retransmit alike.
    connection_setup_cpu: float = 0.006
    # Per-user-key handshake crypto work (3 small sealed messages).
    handshake_cpu: float = 0.010
    # Encryption throughput per mode.
    encrypt_rates: Dict[str, float] = field(default_factory=_default_encrypt_rates)
    # Recovery from datagram loss (a ``link`` fault's LinkFaults drops them).
    retransmit_timeout: float = 2.0
    max_retries: int = 3
    # Exponential backoff between retransmissions: attempt k waits
    # base * backoff**k, scattered by +/- jitter (a fraction) drawn from
    # the node's seeded generator so replays stay byte-identical.  The
    # defaults (1.0, 0.0) reproduce the original fixed per-attempt
    # timeout exactly and draw no randomness at all; replicated
    # topologies turn backoff on (see repro.system.topology).
    retransmit_backoff: float = 1.0
    retransmit_jitter: float = 0.0

    def encrypt_seconds(self, mode: str, nbytes: int) -> float:
        """CPU seconds to encrypt or decrypt ``nbytes`` under ``mode``."""
        rate = self.encrypt_rates[mode]
        if rate == float("inf") or nbytes <= 0:
            return 0.0
        return nbytes / rate

    def with_(self, **changes) -> "RpcCosts":
        """A copy with selected fields replaced (for ablation benches)."""
        return replace(self, **changes)

    @classmethod
    def prototype(cls) -> "RpcCosts":
        """The prototype's RPC: byte streams over heavyweight Unix processes.

        Per-call costs are an order of magnitude above the revised path —
        this is the measured reality of §5.2, where a modest user community
        drove server CPUs to 98 % peaks and the benchmark ran 80 % slower
        remote than local.
        """
        return cls(
            client_stub_cpu=0.115,
            server_dispatch_cpu=0.260,
            context_switch_cpu=0.072,
            switches_per_call=4,
            connection_setup_cpu=0.500,
            handshake_cpu=0.150,
        )

    @classmethod
    def revised(cls) -> "RpcCosts":
        """The revised RPC: datagrams + LWPs in one server process."""
        return cls()
