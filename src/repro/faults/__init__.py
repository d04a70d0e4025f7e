"""Deterministic fault injection, chaos scheduling and recovery driving.

The paper devotes §4.4 to operability — crashed custodians salvage and
return, workstations ride out Vice outages on their caches, the network
"is not assumed to be reliable".  This package makes those behaviours
testable and measurable instead of anecdotal:

* :mod:`repro.faults.plan` — declarative, JSON-round-trippable
  :class:`FaultPlan` (timed fault windows) and :class:`ChaosConfig`
  (seeded random arrivals), plus the named presets shared by
  ``python -m repro day --plan`` and the availability bench.
* :mod:`repro.faults.scheduler` — :class:`FaultScheduler` executes a plan
  as kernel processes: apply at ``start``, revert at ``start + duration``,
  with server recovery running the real salvage pass.
* The injectors live beside the layers they break, so a fault exercises
  the real delivery, disk and CPU paths: :class:`~repro.net.link.LinkFaults`
  (packet loss, corruption, duplication; the damaged copy is built by
  :func:`~repro.net.packet.corrupted_datagram`),
  :class:`~repro.storage.disk.DiskFaults` (media errors, slow service) and
  the host operations ``crash`` / ``recover`` / ``degrade``.  This package
  re-exports the two injector classes and ``corrupted_datagram``.

Install via configuration (``SystemConfig(fault_plan=...)``) or at runtime
(``campus.install_faults(plan)``); either way the campus gains an
:class:`~repro.obs.availability.AvailabilityTracker` that turns operation
outcomes into availability, MTTR and an outage timeline.  With no plan
installed every hook stays ``None`` and the simulation is byte-identical
to one built before this package existed.
"""

from repro.faults.plan import (
    PRESETS,
    ChaosConfig,
    Fault,
    FaultPlan,
    chaos_plan,
    clean_plan,
    flaky_campus_plan,
    lossy_backbone_plan,
    partition_plan,
    server_crash_plan,
)
from repro.faults.scheduler import FaultScheduler
from repro.net.link import LinkFaults
from repro.net.packet import corrupted_datagram
from repro.storage.disk import DiskFaults

__all__ = [
    "ChaosConfig",
    "DiskFaults",
    "Fault",
    "FaultPlan",
    "FaultScheduler",
    "LinkFaults",
    "PRESETS",
    "chaos_plan",
    "clean_plan",
    "corrupted_datagram",
    "flaky_campus_plan",
    "lossy_backbone_plan",
    "partition_plan",
    "server_crash_plan",
]
