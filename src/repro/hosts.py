"""Machine model: a host bundles CPU, disk and network attachment.

Every node in the system — Virtue workstation, Vice cluster server, bridge
management processor — is a :class:`Host`.  Costs throughout the library are
expressed in *seconds on a reference 1-unit machine*; a host with
``cpu_speed`` 2.0 completes the same work in half the virtual time.  This is
how "the server CPU is the performance bottleneck" (§5.2) becomes a
measurable outcome rather than an assumption: all protocol, crypto and
file-handling work is charged to the host's CPU resource, whose utilization
integral the benches read.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.net.topology import Network, NetworkInterface
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.storage.disk import Disk

__all__ = ["Host"]


class Host:
    """One machine: named, attached to a segment, with CPU and disk."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        segment: str,
        cpu_speed: float = 1.0,
        disk: Optional[Disk] = None,
        **disk_kwargs,
    ):
        if cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        self.sim = sim
        self.network = network
        self.name = name
        self.cpu_speed = cpu_speed
        self.rated_cpu_speed = cpu_speed  # nameplate speed; degrade() scales off this
        self.cpu = Resource(sim, capacity=1, name=f"cpu:{name}")
        self.disk = disk or Disk(sim, name=name, **disk_kwargs)
        self.nic: NetworkInterface = network.attach(name, segment)
        self.up = True

        metrics = sim.metrics
        metrics.utilization(f"host.{name}.cpu", lambda: self.cpu.utilization)
        metrics.utilization(f"host.{name}.disk", lambda: self.disk.arm.utilization)
        metrics.counter(f"host.{name}.disk.operations",
                        lambda: self.disk.operations)
        metrics.counter(f"host.{name}.disk.bytes_read",
                        lambda: self.disk.bytes_read)
        metrics.counter(f"host.{name}.disk.bytes_written",
                        lambda: self.disk.bytes_written)

    def compute(self, reference_seconds: float) -> Generator[Any, Any, None]:
        """Occupy the CPU for ``reference_seconds`` of 1-unit machine work."""
        if reference_seconds <= 0:
            return
        # Inlined Resource.use: compute() is the single hottest generator in
        # the simulation, so skip the extra delegating frame and, when the
        # CPU is uncontended, the Request handle allocation too.
        cpu = self.cpu
        if cpu.try_claim():
            try:
                yield reference_seconds / self.cpu_speed
            finally:
                cpu.release_anon()
            return
        request = cpu.request()
        yield request
        try:
            yield reference_seconds / self.cpu_speed
        finally:
            cpu.release(request)

    def cpu_utilization(self, start: float = 0.0, end=None) -> float:
        """Mean CPU busy fraction over the window (the paper's ~40 %)."""
        return self.cpu.utilization.mean_utilization(start, end)

    def disk_utilization(self, start: float = 0.0, end=None) -> float:
        """Mean disk busy fraction over the window (the paper's ~14 %)."""
        return self.disk.mean_utilization(start, end)

    def crash(self) -> None:
        """Mark the host down; its RPC node will refuse traffic."""
        self.up = False

    def recover(self) -> None:
        """Bring the host back up."""
        self.up = True

    def degrade(self, factor: float) -> None:
        """Run the CPU at ``factor`` of its rated speed (thermal throttle,
        a runaway daemon).  Only work started after the call is affected."""
        if factor <= 0:
            raise ValueError("degrade factor must be positive")
        self.cpu_speed = self.rated_cpu_speed * factor

    def restore_speed(self) -> None:
        """Return the CPU to its rated speed."""
        self.cpu_speed = self.rated_cpu_speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} speed={self.cpu_speed}>"
