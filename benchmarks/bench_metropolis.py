"""Metropolis-scale wall-clock benchmark: 200 → 1,000 → 5,000 workstations.

The paper sizes Vice for "more than 5,000 workstations" on one campus
(§1-§2).  This bench sweeps one Andrew-mix campus across three scales —
clusters of 50 workstations on a backbone, under a protection domain with
Grapevine-style recursively nested groups (departments containing project
groups, §3.4), so the per-request protection, routing and RPC dispatch
paths run at realistic fan-out — and reports kernel events per wall-clock
second at each: the headline number for the event kernel (one binary heap
+ cascade batching).

Virtual durations shrink as the campus grows so every scale finishes in
comparable wall time: the point is queue behavior under a large *pending
set* (5,000 workstations keep ~10-25k events pending), not a long day.

Reported per scale:

* ``events_per_second``  — the headline throughput number;
* ``setup_wall_seconds`` / ``run_wall_seconds``;
* ``cpu_seconds``        — process CPU time to build and run the scale
  (what the ``--smoke`` budget reads: it does not inflate on a throttled
  host the way wall time does);
* ``peak_rss_mib``       — the process's resident high-water mark once the
  scale has run (scales run smallest first, so it is that scale's peak);
* ``queue``              — the event queue's own stats (pushes, cascade
  events, dead-event counts) as exposed by ``sim.scheduler_stats``;
* ``virtual_*``          — simulated results, byte-identical across perf
  commits (``--smoke`` fails if they leave ``SMOKE_PINS``).

Usage::

    PYTHONPATH=src python benchmarks/bench_metropolis.py             # all scales
    PYTHONPATH=src python benchmarks/bench_metropolis.py --smoke     # CI budget
    PYTHONPATH=src python benchmarks/bench_metropolis.py --out DIR   # DIR/report.json
"""

import argparse
import json
import os
import resource
import sys
import time

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro import ITCSystem, SystemConfig
from repro.vice.protection import AccessList
from repro.workload import provision_campus, run_campus_day

__all__ = ["build_campus", "run_scale", "run_metropolis_benchmark",
           "SCALES", "SMOKE_SCALES"]

# The sweep.  50-workstation clusters throughout (the paper's cluster
# unit); durations shrink with scale so wall time stays comparable.
SCALES = [
    dict(name="campus-200", clusters=4, workstations_per_cluster=50,
         duration=600.0, warmup=120.0),
    dict(name="metro-1000", clusters=20, workstations_per_cluster=50,
         duration=300.0, warmup=60.0),
    dict(name="metro-5000", clusters=100, workstations_per_cluster=50,
         duration=30.0, warmup=10.0),
]

# CI smoke: the 1,000-workstation scale must fit the budget, so it runs a
# shorter day (same code paths, same pending-set size).
SMOKE_SCALES = [
    dict(name="campus-200", clusters=4, workstations_per_cluster=50,
         duration=300.0, warmup=60.0),
    dict(name="metro-1000", clusters=20, workstations_per_cluster=50,
         duration=120.0, warmup=30.0),
]

# Process CPU budget per --smoke scale, seconds of build + run: 2.5x the
# reading on the reference container (2-vCPU Xeon VM, Python 3.11), so a 2x
# slowdown fails while ordinary noise does not.  Readings: campus-200
# 0.67 s, metro-1000 2.51 s.
SMOKE_BUDGET_CPU_SECONDS = {"campus-200": 1.7, "metro-1000": 6.3}

# Memory budget for the --smoke sweep, MiB of peak RSS after the
# 1,000-workstation scale: the measured 77.5 MiB + 25 %, so that the next
# accumulation of per-server state fails here.  (91.1 MiB while every file
# inode kept an empty directory table, every directory its own copy of each
# entry name, every ACL its own rights sets, every idle queue a deque and
# every user a list of path strings; 103.3 MiB while the metrics registry kept a name, closure and Instrument per instrument per
# host; 115.8 MiB while every Venus cache held its own copy of each
# directory listing and every RPC node seeded a jitter generator it never
# drew from; 144.1 MiB while the
# first read of a provisioned body kept its bytes in the server's inode and
# the Venus cache; 162.7 MiB while every server held its own copy of the
# location and protection databases; 176 MiB while every connection kept
# its last 128 replies; 710 MiB when provisioning built all 42,060 file
# bodies.)
SMOKE_BUDGET_RSS_MIB = 97.0

# The smoke scales' virtual outcome; a change meant to move it re-records
# these and says why.  ``events_scheduled`` (83,922 / 262,866) is reported
# but not pinned: host work that cuts kernel events moves it without
# moving anything a user sees.  Last re-recorded when provisioning began
# releasing /unix read-only to every server: binary reads stay in their
# cluster, so backbone bytes fell 9,550,788 -> 2,742,555 (200 ws) and
# 29,446,131 -> 8,545,967 (1,000 ws).
SMOKE_PINS = {
    "campus-200": {"virtual_actions": 1627, "virtual_failures": 0,
                   "virtual_hit_ratio": 0.277515,
                   "virtual_backbone_bytes": 2742555},
    "metro-1000": {"virtual_actions": 3545, "virtual_failures": 0,
                   "virtual_hit_ratio": 0.146234,
                   "virtual_backbone_bytes": 8545967},
}

_SHARED_SHAPE = dict(projects_per_dept=25, projects_per_user=3)


def provision_protection_domain(campus, projects_per_dept, projects_per_user):
    """A Grapevine-style group hierarchy over the provisioned users.

    Each cluster is a department; departments contain project groups and
    belong to ``campus:all``; every user joins their department and a few
    projects.  Shared-volume ACLs grant through the groups, so every access
    check must walk the membership graph (or hit the CPS cache).
    """
    config = campus.config
    campus.add_group("campus:all")
    project_names = []
    for cluster in range(config.clusters):
        dept = f"dept{cluster}"
        campus.add_group(dept)
        campus.add_member("campus:all", dept)
        for p in range(projects_per_dept):
            project = f"proj{cluster}-{p:02d}"
            campus.add_group(project)
            campus.add_member(dept, project)
            project_names.append((cluster, project))

    per_dept = [[name for c, name in project_names if c == cluster]
                for cluster in range(config.clusters)]
    for index in range(config.total_workstations):
        username = f"user{index:03d}"
        cluster = index // config.workstations_per_cluster
        campus.add_member(f"dept{cluster}", username)
        own = per_dept[cluster]
        for k in range(projects_per_user):
            campus.add_member(own[(index * 7 + k * 3) % len(own)], username)

    # The shared project tree is readable through the group graph, not by
    # system:anyuser: rights now genuinely depend on each caller's CPS.
    acl = AccessList()
    acl.grant("campus:all", "rl")
    for cluster in range(config.clusters):
        acl.grant(f"dept{cluster}", "rliw")
    project_volume = campus.volume("proj")
    campus.set_directory_acl(project_volume, "/", acl)
    campus.set_directory_acl(project_volume, "/files", acl)


def build_campus(clusters, workstations_per_cluster, projects_per_dept,
                 projects_per_user, **_ignored):
    """Build and provision the campus; returns ``(campus, users)``."""
    campus = ITCSystem(SystemConfig(
        mode="revised",
        clusters=clusters,
        workstations_per_cluster=workstations_per_cluster,
        functional_payload_crypto=False,
    ))
    with campus.batch_setup():
        users = provision_campus(campus, hot_files=12, cold_files=30,
                                 shared_files=40, binary_files=20)
        provision_protection_domain(campus, projects_per_dept, projects_per_user)
    return campus, users


def run_scale(scale: dict) -> dict:
    """Build one campus at ``scale`` and run it; returns the report dict."""
    shape = dict(_SHARED_SHAPE, **scale)

    cpu_start = time.process_time()
    setup_start = time.perf_counter()
    campus, users = build_campus(**shape)
    setup_wall = time.perf_counter() - setup_start

    events_before = campus.sim._sequence
    run_start = time.perf_counter()
    summary = run_campus_day(
        campus, users, duration=shape["duration"], warmup=shape["warmup"]
    )
    run_wall = time.perf_counter() - run_start
    cpu = time.process_time() - cpu_start
    events = campus.sim._sequence - events_before

    return {
        "name": scale["name"],
        "workstations": shape["clusters"] * shape["workstations_per_cluster"],
        "clusters": shape["clusters"],
        "virtual_seconds": shape["duration"] + shape["warmup"],
        "setup_wall_seconds": round(setup_wall, 3),
        "run_wall_seconds": round(run_wall, 3),
        "cpu_seconds": round(cpu, 3),
        "peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "events_scheduled": events,
        "events_per_second": round(events / run_wall) if run_wall else 0,
        "queue": campus.sim.scheduler_stats,
        "virtual_actions": summary["actions"],
        "virtual_failures": summary["failures"],
        "virtual_hit_ratio": round(summary["hit_ratio"], 6),
        "virtual_busiest_cpu": round(summary["busiest_cpu"], 6),
        "virtual_backbone_bytes": summary["cross_cluster_bytes"],
    }


def run_metropolis_benchmark(scales=None) -> dict:
    """Run the sweep; returns ``{"scales": [...]}``."""
    return {"scales": [run_scale(scale)
                       for scale in (SCALES if scales is None else scales)]}


def _print_report(report: dict) -> None:
    print("metropolis sweep")
    header = (f"  {'scale':<12} {'ws':>6} {'setup s':>8} {'run s':>8} "
              f"{'cpu s':>7} {'rss MiB':>8} {'events':>9} {'events/s':>9} "
              f"{'actions':>8}")
    print(header)
    for scale in report["scales"]:
        print(f"  {scale['name']:<12} {scale['workstations']:>6} "
              f"{scale['setup_wall_seconds']:>8.2f} {scale['run_wall_seconds']:>8.2f} "
              f"{scale['cpu_seconds']:>7.2f} {scale['peak_rss_mib']:>8.1f} "
              f"{scale['events_scheduled']:>9d} {scale['events_per_second']:>9,} "
              f"{scale['virtual_actions']:>8d}")


def _smoke_gate(report: dict) -> int:
    """The --smoke checks (pins, CPU, memory); returns an exit code."""
    failed = False
    for scale in report["scales"]:
        name = scale["name"]
        moved = [key for key, pinned in SMOKE_PINS[name].items()
                 if scale[key] != pinned]
        for key in moved:
            print(f"smoke pin: {name} {key} = {scale[key]}, "
                  f"pinned {SMOKE_PINS[name][key]}  MOVED")
        if not moved:
            print(f"smoke pins: {name} as pinned  ok")
        budget = SMOKE_BUDGET_CPU_SECONDS[name]
        verdict = "ok" if scale["cpu_seconds"] <= budget else "TOO SLOW"
        print(f"smoke budget: {name} {scale['cpu_seconds']:.2f} CPU s of "
              f"{budget:.1f} s allowed  {verdict}")
        failed = failed or bool(moved) or verdict != "ok"
    peak = report["scales"][-1]["peak_rss_mib"]
    fits = "ok" if peak <= SMOKE_BUDGET_RSS_MIB else "TOO BIG"
    print(f"smoke memory: {peak:.1f} MiB of "
          f"{SMOKE_BUDGET_RSS_MIB:.1f} MiB allowed  {fits}")
    return 1 if failed or fits != "ok" else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="200 + 1,000 workstations under hard budgets (CI)")
    parser.add_argument("--out", metavar="DIR", default="",
                        help="also write the report to DIR/report.json")
    args = parser.parse_args()

    sweep_start = time.perf_counter()
    report = run_metropolis_benchmark(SMOKE_SCALES if args.smoke else None)
    report["sweep_wall_seconds"] = round(time.perf_counter() - sweep_start, 3)
    _print_report(report)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")

    return _smoke_gate(report) if args.smoke else 0


if __name__ == "__main__":
    raise SystemExit(main())
