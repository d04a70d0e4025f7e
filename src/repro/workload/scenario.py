"""The scenario catalogue: every campus day this repo measures, by name.

A :class:`Scenario` is one campus day: the :class:`SystemConfig` it runs
(mode, shape, redundancy, fault plan, cache bounds) and only what the
config lacks.  ``day --scenario NAME`` runs a row; the EXP tables and
the gated campus days of ``benchmarks/bench_days.py`` replace fields of
one.  On SNIPPETS 3's axes, ``proto-20`` is one server, ``campus-200``
.. ``metro-5000`` partition the files over a server per cluster, and
``coded-crash`` adds redundancy (4+2 stripes) under a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults import server_crash_plan
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.vice.protection import AccessList
from repro.workload.synthetic import (SyntheticUser, UserProfile,
                                      provision_campus, run_campus_day)

__all__ = ["SCENARIOS", "Scenario"]

PROVISION_SEED = 11


@dataclass(frozen=True)
class Scenario:
    """One campus day: a config and what the config does not say."""

    config: SystemConfig
    warmup: float
    duration: float
    # provision_campus's counts: each user's hot and cold files, and the
    # shared project and /unix trees.
    hot_files: int = 30
    cold_files: int = 110
    shared_files: int = 60
    binary_files: int = 30
    # Project groups per department in the group graph; 0 builds none.
    projects_per_dept: int = 0
    profile: Optional[UserProfile] = None
    # server0 crashes this fraction into the measured window and stays
    # down to the end of the day (None: no crash).
    crash_at: Optional[float] = None

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with fields replaced, ``SystemConfig`` ones in ``config``."""
        own = {f.name: changes.pop(f.name) for f in fields(self)
               if f.name in changes}
        return replace(self, config=replace(self.config, **changes), **own)

    def build(self, seed: int = 0) -> Tuple[ITCSystem, List[SyntheticUser]]:
        """The provisioned, logged-in campus and its users.  ``seed`` is
        added to the config's seed and to the provisioning seed, so seed 0
        is the row as tracked."""
        config = replace(self.config, seed=self.config.seed + seed)
        if self.crash_at is not None:
            config = replace(config, fault_plan=server_crash_plan(
                at=self.warmup + self.crash_at * self.duration,
                outage=self.warmup + self.duration))
        campus = ITCSystem(config)
        with campus.batch_setup():
            users = provision_campus(
                campus, self.profile, self.hot_files, self.cold_files,
                self.shared_files, self.binary_files, PROVISION_SEED + seed)
            if self.projects_per_dept:
                _group_graph(campus, self.projects_per_dept)
        return campus, users

    def day(self, seed: int = 0) -> Tuple[ITCSystem, Dict[str, Any]]:
        """Build at ``seed`` and run the day; the campus and its summary."""
        campus, users = self.build(seed)
        return campus, run_campus_day(campus, users, duration=self.duration,
                                      warmup=self.warmup)


def _group_graph(campus: ITCSystem, projects_per_dept: int) -> None:
    """A Grapevine-style nested group hierarchy over the provisioned users.

    Each cluster is a department holding project groups and belonging to
    ``campus:all``; every user joins their department and three projects,
    and the shared project tree is readable only through the group graph,
    so every access check walks it (or hits the CPS cache).
    """
    config = campus.config
    acl = AccessList()
    acl.grant("campus:all", "rl")
    campus.add_group("campus:all")
    for cluster in range(config.clusters):
        dept = f"dept{cluster}"
        campus.add_group(dept)
        campus.add_member("campus:all", dept)
        acl.grant(dept, "rliw")
        for p in range(projects_per_dept):
            campus.add_group(f"proj{cluster}-{p:02d}")
            campus.add_member(dept, f"proj{cluster}-{p:02d}")
    for index in range(config.total_workstations):
        cluster = index // config.workstations_per_cluster
        campus.add_member(f"dept{cluster}", f"user{index:03d}")
        for k in range(3):
            p = (index * 7 + k * 3) % projects_per_dept
            campus.add_member(f"proj{cluster}-{p:02d}", f"user{index:03d}")
    for path in ("/", "/files"):
        campus.set_directory_acl(campus.volume("proj"), path, acl)


def _grouped(clusters: int, warmup: float, duration: float,
             profile: Optional[UserProfile] = None) -> Scenario:
    """Revised 50-workstation clusters under the group graph."""
    return Scenario(SystemConfig(clusters=clusters, workstations_per_cluster=50,
                                 functional_payload_crypto=False),
                    warmup, duration, hot_files=12, cold_files=30,
                    shared_files=40, binary_files=20, projects_per_dept=25,
                    profile=profile)


def _coded_crash() -> Scenario:
    from repro.vice.erasure import ErasureConfig  # only a coded day loads it

    return Scenario(SystemConfig(clusters=7, workstations_per_cluster=10,
                                 functional_payload_crypto=False,
                                 erasure=ErasureConfig(data=4, parity=2)),
                    300.0, 1800.0, hot_files=8, cold_files=8, shared_files=8,
                    binary_files=6, crash_at=0.3)


# The rows by name, each made on call: naming the catalogue builds nothing.
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    # The §5.2 day behind EXP-1/2/3/6, and ``day``'s default.
    "proto-20": lambda: Scenario(
        SystemConfig(mode="prototype", clusters=1, workstations_per_cluster=20,
                     functional_payload_crypto=False, cache_max_files=200),
        5400.0, 5400.0),
    "campus-200": lambda: _grouped(4, 600.0, 1800.0),
    "campus-200-writes": lambda: _grouped(
        4, 600.0, 1800.0, UserProfile(p_edit=0.30, p_create=0.10)),
    "metro-1000": lambda: _grouped(20, 30.0, 120.0),
    "metro-5000": lambda: _grouped(100, 10.0, 30.0),
    "coded-crash": _coded_crash,
}
