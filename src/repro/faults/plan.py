"""Declarative fault plans: what breaks, where, when, and for how long.

A :class:`FaultPlan` is data, not behaviour: a tuple of timed
:class:`Fault` windows plus an optional seeded :class:`ChaosConfig` for
random fault arrivals.  The :class:`~repro.faults.scheduler.FaultScheduler`
turns a plan into kernel processes; everything here is plain validated
configuration that round-trips through JSON (``to_dict``/``from_dict``),
so plans can live in files, CLI flags and benchmark tables.

Fault kinds and their targets:

==============  =======================  =====================================
kind            target                   effect while the window is open
==============  =======================  =====================================
``server_crash``  server host name       host down; RPCs time out; a salvage
                                         pass runs on recovery (§4.4)
``ws_crash``      workstation name       workstation down; descriptors and
                                         callback promises die
``partition``     segment name           segment cut off from the campus
                                         (bridge failure)
``link``          segment name           seeded packet loss / corruption /
                                         duplication on the segment
``disk``          host name              seeded media errors and a service-
                                         time multiplier on the host's disk
``slow_cpu``      host name              CPU degraded to ``factor`` of its
                                         rated speed
==============  =======================  =====================================

Determinism: a plan carries its own ``seed``.  Every random stream the
scheduler uses (per-segment link fates, per-disk error draws, chaos
arrivals) is forked from that seed and a stable per-target salt, so the
same ``(SystemConfig.seed, FaultPlan, workload)`` triple replays the same
campus byte-for-byte — regardless of how many other processes are running.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidArgument

__all__ = [
    "ChaosConfig",
    "Fault",
    "FaultPlan",
    "PRESETS",
    "chaos_plan",
    "clean_plan",
    "flaky_campus_plan",
    "lossy_backbone_plan",
    "partition_plan",
    "server_crash_plan",
]

FAULT_KINDS = ("server_crash", "ws_crash", "partition", "link", "disk", "slow_cpu")


@dataclass(frozen=True)
class Fault:
    """One timed fault window on one target."""

    kind: str
    target: str
    start: float
    duration: float
    # Link-fault rates (kind == "link").
    loss: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    # Disk-fault parameters (kind == "disk").
    error_rate: float = 0.0
    latency_factor: float = 1.0
    # CPU degradation (kind == "slow_cpu").
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not self.target:
            raise ValueError("fault target must be a node or segment name")
        if self.start < 0:
            raise ValueError(f"fault start {self.start!r} is negative")
        if self.duration <= 0:
            raise ValueError(f"fault duration {self.duration!r} must be positive")
        for name in ("loss", "corrupt", "duplicate", "error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate!r} outside [0, 1]")
        if self.latency_factor <= 0:
            raise ValueError("latency_factor must be positive")
        if self.factor <= 0:
            raise ValueError("slow_cpu factor must be positive")

    @property
    def end(self) -> float:
        """Virtual time at which the fault is reverted."""
        return self.start + self.duration

    def overlaps(self, other: "Fault") -> bool:
        """True when two windows on the same (kind, target) intersect."""
        if (self.kind, self.target) != (other.kind, other.target):
            return False
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded random fault arrivals ("chaos mode").

    Faults arrive one at a time (serial, so revert order is trivially
    well-defined): exponential inter-arrival times with ``mean_interval``,
    each fault lasting an exponential ``mean_outage`` (floored at one
    second), targeting a uniformly chosen eligible node or segment.  All
    draws come from the plan's seed, so a chaos run replays exactly.
    """

    start: float = 0.0
    end: Optional[float] = None  # None: for as long as the campus runs
    mean_interval: float = 600.0
    mean_outage: float = 60.0
    kinds: Tuple[str, ...] = ("server_crash", "link", "disk", "slow_cpu")
    # Parameters applied to randomly drawn faults of each kind.
    loss: float = 0.05
    corrupt: float = 0.01
    duplicate: float = 0.01
    error_rate: float = 0.05
    latency_factor: float = 4.0
    factor: float = 0.25

    def __post_init__(self):
        if self.mean_interval <= 0 or self.mean_outage <= 0:
            raise ValueError("chaos intervals must be positive")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown chaos fault kind {kind!r}")
        if not self.kinds:
            raise ValueError("chaos needs at least one fault kind")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault windows plus optional chaos arrivals."""

    faults: Tuple[Fault, ...] = ()
    chaos: Optional[ChaosConfig] = None
    seed: int = 0
    name: str = "plan"

    def __post_init__(self):
        # Coerce lists (e.g. from from_dict) into the canonical tuple.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        ordered = sorted(self.faults, key=lambda f: (f.start, f.kind, f.target))
        for first, second in zip(ordered, ordered[1:]):
            if first.overlaps(second):
                raise ValueError(
                    f"overlapping {first.kind!r} windows on {first.target!r}: "
                    f"[{first.start}, {first.end}) and "
                    f"[{second.start}, {second.end})"
                )

    def with_(self, **changes) -> "FaultPlan":
        """A copy with selected fields replaced (re-validates)."""
        return replace(self, **changes)

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [asdict(fault) for fault in self.faults],
            "chaos": None if self.chaos is None else asdict(self.chaos),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (validates: a record
        of the wrong shape is refused with :class:`InvalidArgument`, a bad
        value with the constructors' ``ValueError``)."""
        if not isinstance(record, dict):
            raise InvalidArgument(
                f"malformed fault plan: expected an object, got {record!r}"
            )
        try:
            chaos = record.get("chaos")
            if chaos is not None:
                chaos = dict(chaos)
                if "kinds" in chaos:
                    chaos["kinds"] = tuple(chaos["kinds"])
                chaos = ChaosConfig(**chaos)
            return cls(
                faults=tuple(Fault(**f) for f in record.get("faults", ())),
                chaos=chaos,
                seed=record.get("seed", 0),
                name=record.get("name", "plan"),
            )
        except TypeError as exc:
            raise InvalidArgument(f"malformed fault plan: {exc}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chaos = " chaos" if self.chaos else ""
        return f"<FaultPlan {self.name!r} faults={len(self.faults)}{chaos}>"


# -- presets (shared by the CLI, the bench and the examples) ----------------


def clean_plan(seed: int = 0) -> FaultPlan:
    """No faults at all — the availability-accounting baseline."""
    return FaultPlan(name="clean", seed=seed)


def server_crash_plan(
    server: str = "server0",
    at: float = 600.0,
    outage: float = 120.0,
    seed: int = 0,
) -> FaultPlan:
    """One cluster server crashes mid-run and salvages back."""
    return FaultPlan(
        name="server-crash",
        seed=seed,
        faults=(Fault("server_crash", server, start=at, duration=outage),),
    )


def lossy_backbone_plan(
    loss: float = 0.03,
    corrupt: float = 0.01,
    duplicate: float = 0.01,
    start: float = 300.0,
    duration: float = 1800.0,
    seed: int = 0,
) -> FaultPlan:
    """The backbone drops, damages and duplicates packets for a while."""
    return FaultPlan(
        name="lossy-backbone",
        seed=seed,
        faults=(
            Fault("link", "backbone", start=start, duration=duration,
                  loss=loss, corrupt=corrupt, duplicate=duplicate),
        ),
    )


def partition_plan(
    segment: str = "cluster0",
    at: float = 600.0,
    outage: float = 120.0,
    seed: int = 0,
) -> FaultPlan:
    """One cluster segment is cut off from the backbone (bridge failure).

    Every host on the segment keeps running but cannot be reached from the
    rest of the campus; on a replicated campus the partitioned server's
    write lease expires and its volumes fail over to replicas outside.
    """
    return FaultPlan(
        name="partition",
        seed=seed,
        faults=(Fault("partition", segment, start=at, duration=outage),),
    )


def flaky_campus_plan(seed: int = 0) -> FaultPlan:
    """A bad day: lossy backbone, a server crash, a sick disk, a slow CPU."""
    return FaultPlan(
        name="flaky-campus",
        seed=seed,
        faults=(
            Fault("link", "backbone", start=200.0, duration=1200.0,
                  loss=0.02, corrupt=0.01, duplicate=0.01),
            Fault("server_crash", "server0", start=600.0, duration=90.0),
            Fault("disk", "server1", start=400.0, duration=600.0,
                  error_rate=0.02, latency_factor=3.0),
            Fault("slow_cpu", "server1", start=1100.0, duration=300.0,
                  factor=0.3),
        ),
    )


def chaos_plan(
    seed: int = 0,
    mean_interval: float = 300.0,
    mean_outage: float = 45.0,
    end: Optional[float] = None,
) -> FaultPlan:
    """Seeded random fault arrivals across the whole campus."""
    return FaultPlan(
        name="chaos",
        seed=seed,
        chaos=ChaosConfig(mean_interval=mean_interval,
                          mean_outage=mean_outage, end=end),
    )


# Plan factories by name, each accepting ``seed=``: the CLI's ``--plan``
# choices and the availability bench's scenario table.
PRESETS = {
    "clean": clean_plan,
    "server-crash": server_crash_plan,
    "lossy-backbone": lossy_backbone_plan,
    "partition": partition_plan,
    "flaky-campus": flaky_campus_plan,
    "chaos": chaos_plan,
}
