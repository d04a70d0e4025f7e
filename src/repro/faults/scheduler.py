"""The fault scheduler: a plan's windows executed as kernel events.

:class:`FaultScheduler` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into simulation processes.  Each
timed fault becomes one window process (sleep until ``start``, apply,
sleep ``duration``, revert); chaos mode becomes one arrival loop drawing
seeded random faults one at a time.  All randomness — per-segment link
fates, per-disk error draws, chaos arrivals — forks off the plan's seed
with stable per-target salts, so a given ``(config, plan, workload)``
triple replays byte-identically no matter what else the campus is doing.

Reverting is as important as injecting: a crashed server runs its §4.4
salvage pass before counting as recovered, a degraded CPU returns to its
rated speed, an injected link or disk fault is uninstalled (restoring the
zero-cost-when-off fast path).  Every apply/revert is reported to the
campus :class:`~repro.obs.availability.AvailabilityTracker` so the outage
timeline and MTTR numbers line up with what was actually injected.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator, Optional

from repro.errors import SimulationError
from repro.faults.plan import ChaosConfig, Fault, FaultPlan
from repro.net.link import LinkFaults
from repro.sim.rand import WorkloadRandom
from repro.storage.disk import DiskFaults

__all__ = ["FaultScheduler"]


def _salt(label: str) -> int:
    """A stable integer salt for per-target random streams."""
    return zlib.crc32(label.encode())


class FaultScheduler:
    """Executes a :class:`FaultPlan` against a live campus."""

    def __init__(self, campus, plan: FaultPlan):
        self.campus = campus
        self.sim = campus.sim
        self.plan = plan
        self._base_rng = WorkloadRandom(plan.seed)
        # Injection counters shared with every installed injector.
        self.stats: Dict[str, int] = {
            "link_lost": 0, "link_corrupted": 0, "link_duplicated": 0,
            "disk_errors": 0,
        }
        self.installed = False
        self.chaos_running = False
        self.active: Dict[tuple, Fault] = {}  # (kind, target) -> live fault
        self.sim.metrics.counter("faults.injections", lambda: dict(self.stats))
        self.sim.metrics.gauge("faults.active", lambda: len(self.active))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Spawn one window process per fault plus the chaos loop, if any."""
        if self.installed:
            raise SimulationError("fault plan already installed")
        self.installed = True
        for index, fault in enumerate(self.plan.faults):
            self.sim.process(
                self._window(fault),
                name=f"fault:{fault.kind}:{fault.target}:{index}",
            )
        if self.plan.chaos is not None:
            self.chaos_running = True
            self.sim.process(self._chaos_loop(self.plan.chaos), name="fault:chaos")

    # -- live injection (the ops console) ----------------------------------

    def inject(self, fault: Fault) -> None:
        """Enqueue one ad-hoc fault window into the running simulation.

        ``fault.start`` is relative to *now* (0 = apply at the next
        instant), exactly as plan windows are relative to t=0.  The window
        runs through the same apply/revert path as planned faults, so the
        availability timeline and the ops-event stream record it
        identically.
        """
        self.sim.process(
            self._window(fault),
            name=f"fault:live:{fault.kind}:{fault.target}",
        )

    def start_chaos(self, chaos: ChaosConfig) -> bool:
        """Start a chaos arrival loop mid-run; False if one is already on.

        ``chaos.start``/``chaos.end`` are still absolute virtual times, so
        a console-started loop usually passes ``start=0`` (begin now) and
        ``end=None`` (until the campus stops).
        """
        if self.chaos_running:
            return False
        self.chaos_running = True
        self.sim.process(self._chaos_loop(chaos), name="fault:chaos-live")
        return True

    def _window(self, fault: Fault) -> Generator:
        yield float(fault.start)
        self._apply(fault)
        yield float(fault.duration)
        yield from self._revert(fault)

    # -- chaos mode --------------------------------------------------------

    def _chaos_loop(self, chaos: ChaosConfig) -> Generator:
        """Seeded random fault arrivals, strictly one live fault at a time."""
        rng = self._base_rng.fork(_salt("chaos-arrivals"))
        if chaos.start > 0:
            yield float(chaos.start)
        while chaos.end is None or self.sim.now < chaos.end:
            yield rng.exponential(chaos.mean_interval)
            if chaos.end is not None and self.sim.now >= chaos.end:
                break
            fault = self._draw_fault(rng, chaos)
            if fault is None or not self._apply(fault):
                continue
            yield float(fault.duration)
            yield from self._revert(fault)

    def _draw_fault(self, rng: WorkloadRandom,
                    chaos: ChaosConfig) -> Optional[Fault]:
        kind = rng.choice(chaos.kinds)
        duration = max(1.0, rng.exponential(chaos.mean_outage))
        campus = self.campus
        if kind == "server_crash":
            target = rng.choice([s.host.name for s in campus.servers])
            return Fault(kind, target, start=0.0, duration=duration)
        if kind == "ws_crash":
            target = rng.choice([w.name for w in campus.workstations])
            return Fault(kind, target, start=0.0, duration=duration)
        if kind == "partition":
            target = rng.choice(sorted(campus.network.segments))
            return Fault(kind, target, start=0.0, duration=duration)
        if kind == "link":
            target = rng.choice(sorted(campus.network.segments))
            return Fault(kind, target, start=0.0, duration=duration,
                         loss=chaos.loss, corrupt=chaos.corrupt,
                         duplicate=chaos.duplicate)
        if kind == "disk":
            target = rng.choice([s.host.name for s in campus.servers])
            return Fault(kind, target, start=0.0, duration=duration,
                         error_rate=chaos.error_rate,
                         latency_factor=chaos.latency_factor)
        if kind == "slow_cpu":
            target = rng.choice([s.host.name for s in campus.servers])
            return Fault(kind, target, start=0.0, duration=duration,
                         factor=chaos.factor)
        return None

    # -- apply / revert ----------------------------------------------------

    def _host_for(self, target: str):
        """The Host behind a target name (server or workstation)."""
        try:
            return self.campus.server(target).host
        except KeyError:
            return self.campus.workstation(target).host

    def _apply(self, fault: Fault) -> bool:
        """Inject one fault; returns False when the target is already
        faulted the same way (chaos collisions are skipped, not stacked)."""
        key = (fault.kind, fault.target)
        if key in self.active:
            return False
        campus, kind, target = self.campus, fault.kind, fault.target
        detail: Dict[str, Any] = {}
        if kind == "server_crash":
            host = campus.server(target).host
            if not host.up:
                return False
            host.crash()
        elif kind == "ws_crash":
            workstation = campus.workstation(target)
            if not workstation.host.up:
                return False
            workstation.crash()
        elif kind == "partition":
            if target in campus.network.partitioned:
                return False
            campus.network.partition(target)
        elif kind == "link":
            segment = campus.network.segments[target]
            if segment.faults is not None:
                return False
            campus.network.install_link_faults(target, LinkFaults(
                self._base_rng.fork(_salt(f"link:{target}")),
                loss=fault.loss, corrupt=fault.corrupt,
                duplicate=fault.duplicate, stats=self.stats,
            ))
            detail = {"loss": fault.loss, "corrupt": fault.corrupt,
                      "duplicate": fault.duplicate}
        elif kind == "disk":
            disk = self._host_for(target).disk
            if disk.faults is not None:
                return False
            disk.faults = DiskFaults(
                self._base_rng.fork(_salt(f"disk:{target}")),
                error_rate=fault.error_rate,
                latency_factor=fault.latency_factor, stats=self.stats,
            )
            detail = {"error_rate": fault.error_rate,
                      "latency_factor": fault.latency_factor}
        elif kind == "slow_cpu":
            host = self._host_for(target)
            if host.cpu_speed != host.rated_cpu_speed:
                return False
            host.degrade(fault.factor)
            detail = {"factor": fault.factor}
        else:  # pragma: no cover - Fault validation forbids this
            raise SimulationError(f"unknown fault kind {kind!r}")
        self.active[key] = fault
        tracker = self.campus.availability
        if tracker is not None:
            tracker.record_fault(kind, target, **detail)
        return True

    def _revert(self, fault: Fault) -> Generator:
        """Undo one fault; a generator because server recovery salvages."""
        key = (fault.kind, fault.target)
        self.active.pop(key, None)
        campus, kind, target = self.campus, fault.kind, fault.target
        tracker = campus.availability
        if kind == "server_crash":
            server = campus.server(target)
            server.host.recover()
            # §4.4: a recovering custodian salvages every volume before it
            # counts as back; recovery time includes the salvage pass.
            reports = yield from server.salvage_all()
            if tracker is not None:
                tracker.record_salvage(target, len(reports))
        elif kind == "ws_crash":
            campus.workstation(target).recover()
        elif kind == "partition":
            campus.network.heal(target)
        elif kind == "link":
            campus.network.install_link_faults(target, None)
        elif kind == "disk":
            self._host_for(target).disk.faults = None
        elif kind == "slow_cpu":
            self._host_for(target).restore_speed()
        if tracker is not None:
            tracker.record_recovery(kind, target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultScheduler plan={self.plan.name!r} "
                f"active={len(self.active)}>")
