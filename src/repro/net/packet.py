"""Wire-level cost model: packets, frames and transfer sizing.

The network substrate does not simulate individual frames as events (a
campus day would be billions of them); instead each transfer is costed by
the exact number of frames it would occupy on an early-1980s Ethernet:
``ceil(payload / mtu)`` frames, each carrying ``header_bytes`` of protocol
overhead.  This is what makes the paper's whole-file-vs-page argument
measurable — a page-at-a-time protocol pays the header and round-trip cost
once per page, a whole-file transfer amortises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Datagram", "WireFormat", "corrupted_datagram"]


@dataclass(frozen=True)
class WireFormat:
    """Frame parameters for a LAN segment.

    Defaults approximate the 10 Mb/s Ethernet of the paper's campus:
    1460-byte maximum payload, 64 bytes of header/trailer/preamble per
    frame, plus a mandatory inter-frame gap.
    """

    mtu: int = 1460
    header_bytes: int = 64
    interframe_gap_bits: int = 96

    def frames_for(self, payload_bytes: int) -> int:
        """Number of frames a payload occupies (at least one)."""
        if payload_bytes <= 0:
            return 1
        # Integer ceiling division: exact for payloads too large for floats.
        return -(-payload_bytes // self.mtu)

    def wire_bytes(self, payload_bytes: int) -> int:
        """Total bytes on the wire including per-frame headers."""
        return max(0, payload_bytes) + self.frames_for(payload_bytes) * self.header_bytes


class Datagram:
    """One logical unit handed to the network: a message plus its size.

    ``payload`` is opaque to the network (the RPC layer puts marshalled
    call records and file contents in it).  ``payload_bytes`` is the size
    used for costing; it may exceed ``len(payload)`` when the RPC layer
    accounts for marshalling overhead.

    A plain ``__slots__`` class, not a dataclass: one is allocated per RPC
    message, so the per-instance ``__dict__`` is measurable churn.
    """

    __slots__ = ("source", "destination", "payload", "payload_bytes", "hops", "metadata")

    def __init__(self, source: str, destination: str, payload: Any,
                 payload_bytes: int, hops: int = 0, metadata: Any = None):
        self.source = source
        self.destination = destination
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.hops = hops
        self.metadata = metadata  # lazily-populated annotation slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Datagram(source={self.source!r}, destination={self.destination!r}, "
                f"payload_bytes={self.payload_bytes}, hops={self.hops})")


def corrupted_datagram(datagram: Datagram, rng: Any) -> Optional[Datagram]:
    """A copy of ``datagram`` whose payload arrived with flipped bits.

    The network treats payloads as opaque, so corruption is delegated to the
    payload itself via a ``corrupted_copy(rng)`` method (the RPC layer's
    :class:`~repro.rpc.messages.Envelope` implements it).  Returns ``None``
    when the payload cannot be meaningfully corrupted — the caller should
    then deliver the original untouched.  The original datagram is never
    mutated: in-process simulation shares payload objects with the sender's
    reply cache.
    """
    corrupt = getattr(datagram.payload, "corrupted_copy", None)
    if corrupt is None:
        return None
    payload = corrupt(rng)
    if payload is None:
        return None
    return Datagram(
        datagram.source, datagram.destination, payload,
        datagram.payload_bytes, hops=datagram.hops, metadata=datagram.metadata,
    )
