"""A shared LAN segment with serialization, latency and fair interleaving.

Each segment (a cluster Ethernet or the campus backbone of Fig. 2-2) is a
single shared medium: one station transmits at a time.  Long transfers are
split into *bursts* of a configurable number of frames so that concurrent
senders interleave, as CSMA/CD stations do, without simulating every frame
as a kernel event.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter
from repro.sim.rand import WorkloadRandom
from repro.sim.resources import Resource
from repro.net.packet import WireFormat

__all__ = ["LinkFaults", "Segment"]


class LinkFaults:
    """Seeded per-segment packet-fault injector (loss/corruption/duplication).

    Installed on :attr:`Segment.faults` by the chaos scheduler (see
    :mod:`repro.faults`); ``None`` — the default — costs the transfer path a
    single attribute check.  Fates are decided per logical transfer by a
    dedicated :class:`~repro.sim.rand.WorkloadRandom`, so identical seeds
    reproduce identical fault sequences regardless of other campus traffic.

    A *lost* transfer occupies the wire but never reaches the destination
    inbox; a *corrupted* one arrives with flipped bytes (the RPC layer's
    MAC check must catch it); a *duplicated* one arrives twice (at-most-once
    semantics must absorb it).
    """

    __slots__ = ("rng", "loss", "corrupt", "duplicate", "stats")

    def __init__(
        self,
        rng: WorkloadRandom,
        loss: float = 0.0,
        corrupt: float = 0.0,
        duplicate: float = 0.0,
        stats: Optional[Dict[str, int]] = None,
    ):
        for name, rate in (("loss", loss), ("corrupt", corrupt),
                           ("duplicate", duplicate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate!r} outside [0, 1]")
        self.rng = rng
        self.loss = loss
        self.corrupt = corrupt
        self.duplicate = duplicate
        # Shared with the scheduler/tracker so injections are observable.
        self.stats = stats if stats is not None else {
            "link_lost": 0, "link_corrupted": 0, "link_duplicated": 0,
        }

    def judge(self) -> str:
        """Fate of one transfer: "lost", "corrupted", "duplicated" or "ok".

        At most one fate per transfer (a lost packet cannot also arrive
        twice); draws short-circuit in a fixed order so the stream is
        deterministic.
        """
        rng = self.rng
        if self.loss and rng.chance(self.loss):
            self.stats["link_lost"] += 1
            return "lost"
        if self.corrupt and rng.chance(self.corrupt):
            self.stats["link_corrupted"] += 1
            return "corrupted"
        if self.duplicate and rng.chance(self.duplicate):
            self.stats["link_duplicated"] += 1
            return "duplicated"
        return "ok"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkFaults loss={self.loss} corrupt={self.corrupt}"
                f" duplicate={self.duplicate}>")


class Segment:
    """One broadcast LAN segment.

    Parameters
    ----------
    bandwidth_bps:
        Raw signalling rate (10 Mb/s for the campus Ethernet).
    latency:
        One-way propagation plus media-access delay per burst, seconds.
    wire:
        Frame format used to convert payload bytes into wire bits.
    burst_frames:
        Frames sent per medium acquisition; smaller values interleave
        concurrent transfers more finely at the cost of more events.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float = 10_000_000.0,
        latency: float = 0.0005,
        wire: WireFormat = WireFormat(),
        burst_frames: int = 32,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if burst_frames < 1:
            raise ValueError("burst_frames must be >= 1")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency = float(latency)
        self.wire = wire
        self.burst_frames = burst_frames
        self.medium = Resource(sim, capacity=1, name=f"lan:{name}")
        self.bytes_carried = 0
        self.frames_carried = 0
        self.traffic = Counter(f"traffic:{name}")
        # Fault injection hook (repro.faults): None keeps the segment clean
        # and costs the delivery path one attribute check.
        self.faults: Optional[LinkFaults] = None

    def transmission_time(self, payload_bytes: int) -> float:
        """Seconds the medium is occupied by ``payload_bytes`` (no queueing)."""
        return self.wire.wire_bits(payload_bytes) / self.bandwidth_bps

    def transmit(self, payload_bytes: int, kind: str = "data") -> Generator[Any, Any, None]:
        """Occupy the medium long enough to carry ``payload_bytes``.

        A generator to be driven from a simulation process.  Completes when
        the last burst has been transmitted and has propagated.
        """
        wire = self.wire
        frames = wire.frames_for(payload_bytes)
        wire_bytes = wire.wire_bytes(payload_bytes)
        self.frames_carried += frames
        self.bytes_carried += wire_bytes
        self.traffic.add(kind, wire_bytes)

        # Hoist the per-frame wire overhead out of the burst loop.
        mtu = wire.mtu
        per_frame_bits = wire.header_bytes * 8 + wire.interframe_gap_bits
        bandwidth = self.bandwidth_bps
        burst_frames = self.burst_frames
        medium_use = self.medium.use
        remaining_frames = frames
        remaining_bytes = max(payload_bytes, 0)
        while remaining_frames > 0:
            burst = burst_frames if burst_frames < remaining_frames else remaining_frames
            burst_bytes = min(remaining_bytes, burst * mtu)
            burst_bits = burst_bytes * 8 + burst * per_frame_bits
            yield from medium_use(burst_bits / bandwidth)
            remaining_frames -= burst
            remaining_bytes -= burst_bytes
        # Propagation + media access once per logical transfer; a zero-latency
        # segment must not cost a kernel event.
        if self.latency > 0.0:
            yield self.latency

    def mean_utilization(self, start: float = 0.0, end=None) -> float:
        """Fraction of time the medium was busy over the window."""
        return self.medium.utilization.mean_utilization(start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Segment {self.name} {self.bandwidth_bps/1e6:.0f}Mb/s>"
