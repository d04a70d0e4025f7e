"""The campus network: segments, bridges and a uniform address space.

Figure 2-2 of the paper: clusters of 50-100 workstations, each cluster with
its own Ethernet segment and cluster server, joined by *bridges* to a
backbone Ethernet.  "All of Vice is logically one network, with the bridges
providing a uniform network address space for all nodes" — so nodes address
each other by name and the :class:`Network` does the routing, invisibly to
the endpoints, exactly as the paper requires.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import NoRoute, SimulationError
from repro.net.link import LinkFaults, Segment
from repro.net.packet import Datagram, corrupted_datagram
from repro.sim.kernel import Simulator
from repro.sim.resources import Store

__all__ = ["Bridge", "Network", "NetworkInterface"]

# The network's one registry instrument, the labelled counter
# net.route_cache (the empty suffix names the prefix itself).
INSTRUMENTS = {
    "": ("counter", lambda net: {"hits": net.route_hits,
                                 "misses": net.route_misses}),
}


class NetworkInterface:
    """A node's attachment point: a named inbox on one segment."""

    def __init__(self, sim: Simulator, node: str, segment: Segment):
        self.node = node
        self.segment = segment
        self.inbox: Store = Store(sim, name=f"nic:{node}")

    def receive(self) -> Any:
        """Event that fires with the next inbound :class:`Datagram`."""
        return self.inbox.get()


class Bridge:
    """A store-and-forward router between two segments.

    Bridges add a per-transfer forwarding delay (routing-table lookup and
    queueing in the bridge's memory) on top of retransmission onto the next
    segment.
    """

    def __init__(self, name: str, side_a: Segment, side_b: Segment, forwarding_delay: float = 0.002):
        self.name = name
        self.side_a = side_a
        self.side_b = side_b
        self.forwarding_delay = float(forwarding_delay)
        self.transfers_forwarded = 0


class Network:
    """The whole campus internetwork with name-based, location-free addressing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.segments: Dict[str, Segment] = {}
        self.bridges: List[Bridge] = []
        self.interfaces: Dict[str, NetworkInterface] = {}
        # Route cache: (src segment, dst segment) -> (segments, hops) where
        # hops pairs each segment with the bridge crossed to reach it
        # (``None`` for the first).  ``send`` walks hops with zero scans.
        self._route_cache: Dict[Tuple[str, str], Tuple[List[Segment], List[Tuple[Segment, Optional[Bridge]]]]] = {}
        # Segment name -> [(neighbor segment, joining bridge)], kept in
        # bridge insertion order so BFS tie-breaks exactly as the old
        # scan-all-bridges loop did.
        self._adjacency: Dict[str, List[Tuple[Segment, Bridge]]] = {}
        self.partitioned: set = set()  # names of segments currently cut off
        # Count of segments with an installed LinkFaults injector; zero keeps
        # the delivery path on its original no-branching-per-hop shape.
        self._faulty_segments = 0
        self.route_hits = 0
        self.route_misses = 0
        sim.metrics.attach("net.route_cache", self, INSTRUMENTS)

    # -- construction -------------------------------------------------------

    def add_segment(self, name: str, **segment_kwargs) -> Segment:
        """Create and register a LAN segment."""
        if name in self.segments:
            raise SimulationError(f"duplicate segment {name!r}")
        segment = Segment(self.sim, name, **segment_kwargs)
        self.segments[name] = segment
        self._route_cache.clear()
        return segment

    def add_bridge(self, name: str, segment_a: str, segment_b: str, forwarding_delay: float = 0.002) -> Bridge:
        """Join two segments with a store-and-forward bridge."""
        side_a, side_b = self.segments[segment_a], self.segments[segment_b]
        bridge = Bridge(name, side_a, side_b, forwarding_delay)
        self.bridges.append(bridge)
        self._adjacency.setdefault(side_a.name, []).append((side_b, bridge))
        self._adjacency.setdefault(side_b.name, []).append((side_a, bridge))
        self._route_cache.clear()
        return bridge

    def attach(self, node: str, segment_name: str) -> NetworkInterface:
        """Attach a named node to a segment; node names are campus-unique."""
        if node in self.interfaces:
            raise SimulationError(f"node {node!r} already attached")
        nic = NetworkInterface(self.sim, node, self.segments[segment_name])
        self.interfaces[node] = nic
        return nic

    # -- fault injection -------------------------------------------------------

    def partition(self, segment_name: str) -> None:
        """Cut a segment off from the rest of the campus (bridge failure)."""
        self.partitioned.add(segment_name)
        self._route_cache.clear()

    def heal(self, segment_name: str) -> None:
        """Restore a previously partitioned segment."""
        self.partitioned.discard(segment_name)
        self._route_cache.clear()

    def install_link_faults(self, segment_name: str, faults: Optional[LinkFaults]) -> None:
        """Attach (or, with ``None``, remove) a fault injector on a segment."""
        segment = self.segments[segment_name]
        if (segment.faults is None) != (faults is None):
            self._faulty_segments += 1 if faults is not None else -1
        segment.faults = faults

    # -- routing --------------------------------------------------------------

    def route(self, src_node: str, dst_node: str) -> List[Segment]:
        """Ordered segments a transfer crosses from ``src`` to ``dst``.

        Raises :class:`NoRoute` when no path exists (partition).
        """
        return self._hops(src_node, dst_node)[0]

    def _hops(self, src_node: str, dst_node: str) -> Tuple[List[Segment], List[Tuple[Segment, Optional[Bridge]]]]:
        """Cached ``(segments, (segment, inbound bridge) pairs)`` for a route."""
        src_seg = self.interfaces[src_node].segment
        dst_seg = self.interfaces[dst_node].segment
        key = (src_seg.name, dst_seg.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            self.route_hits += 1
            return cached
        self.route_misses += 1
        hops = self._shortest_path(src_seg, dst_seg)
        if hops is None:
            raise NoRoute(
                f"no route from {src_node} ({src_seg.name}) to {dst_node} ({dst_seg.name})"
            )
        entry = ([segment for segment, _bridge in hops], hops)
        self._route_cache[key] = entry
        return entry

    def _shortest_path(self, src: Segment, dst: Segment) -> Optional[List[Tuple[Segment, Optional[Bridge]]]]:
        if src is dst:
            # A partition is a bridge failure: traffic that never leaves the
            # segment still flows (the cut-off cluster keeps its own server).
            return [(src, None)]
        partitioned = self.partitioned
        if src.name in partitioned or dst.name in partitioned:
            return None
        adjacency = self._adjacency
        # Parent-pointer BFS over the precomputed adjacency map; visits
        # neighbors in bridge insertion order, matching the old full scan.
        prev: Dict[str, Tuple[Optional[Segment], Bridge]] = {}
        frontier = deque([src])
        visited = {src.name}
        while frontier:
            tail = frontier.popleft()
            for nxt, bridge in adjacency.get(tail.name, ()):
                if nxt.name in visited or nxt.name in partitioned:
                    continue
                prev[nxt.name] = (tail, bridge)
                if nxt is dst:
                    hops: List[Tuple[Segment, Optional[Bridge]]] = [(nxt, bridge)]
                    while tail is not src:
                        parent, via = prev[tail.name]
                        hops.append((tail, via))
                        tail = parent
                    hops.append((src, None))
                    hops.reverse()
                    return hops
                visited.add(nxt.name)
                frontier.append(nxt)
        return None

    def hop_count(self, src_node: str, dst_node: str) -> int:
        """Number of segments crossed (1 = same cluster)."""
        return len(self.route(src_node, dst_node))

    # -- transfer ---------------------------------------------------------------

    def send(
        self, datagram: Datagram, kind: str = "data", deliver: bool = True
    ) -> Generator[Any, Any, None]:
        """Carry ``datagram`` to its destination and deposit it in the inbox.

        A generator to be driven by a simulation process; completes when the
        datagram has been delivered.  Crossing each segment serializes on
        that segment's medium; each bridge adds its forwarding delay.
        ``deliver=False`` models a datagram lost in flight: it occupies the
        wire but never reaches the destination inbox.
        """
        _segments, hops = self._hops(datagram.source, datagram.destination)
        payload_bytes = datagram.payload_bytes
        for segment, bridge in hops:
            if bridge is not None:
                bridge.transfers_forwarded += 1
                yield bridge.forwarding_delay
            yield from segment.transmit(payload_bytes, kind=kind)
        datagram.hops = len(hops)
        copies = 1
        if self._faulty_segments and deliver:
            # Each faulty segment crossed judges the transfer independently;
            # a loss anywhere ends it, corruption and duplication compose
            # (the duplicate of a corrupted transfer is also corrupted, as
            # a bridge re-forwards the damaged frame it received).
            corrupted = False
            for segment, _bridge in hops:
                faults = segment.faults
                if faults is None:
                    continue
                fate = faults.judge()
                if fate == "lost":
                    deliver = False
                    break
                if fate == "corrupted":
                    if not corrupted:
                        damaged = corrupted_datagram(datagram, faults.rng)
                        if damaged is not None:
                            datagram = damaged
                            corrupted = True
                elif fate == "duplicated":
                    copies += 1
        if deliver:
            inbox = self.interfaces[datagram.destination].inbox
            for _ in range(copies):
                inbox.put(datagram)

    def total_bytes_on(self, segment_name: str) -> int:
        """Wire bytes carried by a segment so far (for traffic experiments)."""
        return self.segments[segment_name].bytes_carried
