"""Monitoring tools (§3.6): access-pattern observation and rebalancing.

"Another area, whose importance we recognize ... is the development of
monitoring tools.  These tools will be required to ease day-to-day
operations of the system and also to recognize long-term changes in user
access patterns and help reassign users to cluster servers so as to balance
server loads and reduce cross-cluster traffic."  And §3.1: "we may install
mechanisms in Vice to monitor long-term access file patterns and recommend
changes to improve performance.  Even then, a human operator will initiate
the actual reassignment."

:class:`CampusMonitor` reads the traffic counters every server keeps (per
volume, per originating cluster segment) and produces *recommendations*; a
human — the example or test driving the simulation — decides whether to
apply each one via the normal ``move_volume`` protocol.  Its observation
window is a baseline reading taken by the same
:class:`~repro.obs.live.CounterReader` the rolling aggregator uses, so
opening a new window touches no server's counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.obs.live import CounterReader

__all__ = ["CampusMonitor", "Recommendation"]


@dataclass(frozen=True)
class Recommendation:
    """One suggested custodian reassignment."""

    volume_id: str
    current_server: str
    suggested_server: str
    local_accesses: int
    remote_accesses: int
    reason: str


class CampusMonitor:
    """Aggregates every server's traffic counters campus-wide, over a
    window that opens at construction and again at each :meth:`reset`."""

    def __init__(self, campus):
        self.campus = campus
        self._reader = CounterReader(campus.metrics)

    def _names(self, template: str) -> List[str]:
        return [template.format(server.host.name) for server in self.campus.servers]

    # -- observation ---------------------------------------------------------

    def traffic_matrix(self) -> Dict[str, Dict[str, int]]:
        """volume_id -> {originating segment -> data accesses}."""
        matrix: Dict[str, Dict[str, int]] = {}
        traffic = self._reader.summed(self._names("vice.{}.volume_traffic"),
                                      advance=False)
        for label, count in traffic.items():
            volume_id, _, segment = label.partition("|")
            matrix.setdefault(volume_id, {})[segment] = count
        return matrix


    def usage_by_user(self) -> Dict[str, int]:
        """Bytes of data traffic per user, campus-wide (§3.6 accounting)."""
        return self._reader.summed(self._names("vice.{}.usage_by_user"),
                                   advance=False)

    # -- recommendation ---------------------------------------------------------

    def _segment_server(self, segment: str) -> str:
        """The cluster server living on a given segment, if it is up."""
        for server in self.campus.servers:
            if server.host.nic.segment.name == segment and server.host.up:
                return server.host.name
        return ""

    def recommendations(
        self, min_accesses: int = 20, remote_threshold: float = 0.6
    ) -> List[Recommendation]:
        """Volumes whose traffic mostly originates in another cluster.

        A volume is flagged when at least ``min_accesses`` data accesses
        were observed and more than ``remote_threshold`` of them came from
        one *other* cluster — the "student moved to another dormitory" case
        of §3.1.
        """
        location = self.campus.location
        flagged: List[Recommendation] = []
        for volume_id, by_segment in self.traffic_matrix().items():
            if volume_id.endswith("-ro"):
                continue  # replicas already sit where their readers are
            total = sum(by_segment.values())
            if total < min_accesses:
                continue
            try:
                entry = location.entry_for_volume(volume_id)
            except Exception:
                continue
            custodian = entry.custodian
            home_segment = self.campus.server(custodian).host.nic.segment.name
            remote = {segment: count for segment, count in by_segment.items()
                      if segment != home_segment}
            if not remote:
                continue
            # Only the dominant remote segment is considered.
            segment = max(remote, key=remote.get)
            count, target = remote[segment], self._segment_server(segment)
            if count / total > remote_threshold and target and target != custodian:
                flagged.append(Recommendation(
                    volume_id=volume_id, current_server=custodian,
                    suggested_server=target,
                    local_accesses=by_segment.get(home_segment, 0),
                    remote_accesses=count,
                    reason=(f"{count}/{total} data accesses originate in "
                            f"{segment}, served from {home_segment}"),
                ))
        return flagged

    # -- the human-in-the-loop action -----------------------------------------

    def apply(self, recommendation: Recommendation) -> Generator:
        """Carry out one reassignment (operator-initiated, §3.1)."""
        server = self.campus.server(recommendation.current_server)
        yield from server.move_volume(
            recommendation.volume_id, recommendation.suggested_server
        )

    def reset(self) -> None:
        """Start a fresh observation window: today's readings become the
        baseline the three views count from."""
        self._reader.rebase(self._names("vice.{}.volume_traffic")
                            + self._names("vice.{}.usage_by_user")
                            + self._names("rpc.{}.calls_received"))
