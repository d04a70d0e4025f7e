"""Campus-scale wall-clock benchmark: 4 clusters, 200 workstations.

The paper's deployment target is thousands of workstations in clusters of
50-100; the EXP-* benches run at toy sizes.  This bench drives one full
cluster-scale campus — 4 clusters of 50 workstations on a backbone, each
user running the Andrew-mix synthetic workload — under a protection domain
with Grapevine-style recursively nested groups (departments containing
project groups, §3.4), so the per-request protection, routing and RPC
dispatch paths are exercised at realistic fan-out.

Reported quantities:

* ``setup_wall_seconds`` — building and provisioning the campus;
* ``run_wall_seconds``   — executing the simulated day (the headline
  number the fast paths exist to shrink);
* ``events_per_second``  — kernel events scheduled per wall second;
* ``virtual_*``          — simulated results (actions, hit ratio, busiest
  CPU).  These must be byte-identical across perf commits.

Usage::

    PYTHONPATH=src python benchmarks/bench_campus.py           # full shape
    PYTHONPATH=src python benchmarks/bench_campus.py --smoke   # CI budget
    PYTHONPATH=src python benchmarks/bench_campus.py --json F  # write JSON
"""

import argparse
import contextlib
import json
import os
import sys
import time

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro import ITCSystem, SystemConfig
from repro.vice.protection import AccessList
from repro.workload import provision_campus, run_campus_day

__all__ = ["build_campus", "run_campus_benchmark", "CAMPUS_SHAPE", "SMOKE_SHAPE"]

# The full shape: one paper-scale campus (4 clusters x 50 workstations).
CAMPUS_SHAPE = dict(
    clusters=4, workstations_per_cluster=50,
    duration=1800.0, warmup=600.0,
    projects_per_dept=25, projects_per_user=3,
)

# Scaled down for CI: same code paths, a fraction of the work.
SMOKE_SHAPE = dict(
    clusters=2, workstations_per_cluster=10,
    duration=900.0, warmup=120.0,
    projects_per_dept=8, projects_per_user=2,
)

# Absolute wall-clock budget for --smoke, seconds.  The smoke run takes
# ~0.25 s on the reference container; the budget leaves >10x headroom for
# slow shared CI runners while still failing loudly if the fast paths
# regress to the pre-optimisation cost profile (which would not fit even
# on fast hardware once multiplied across the smoke run).
SMOKE_BUDGET_SECONDS = 3.5


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
                 projects_per_user, seed=0, **_ignored):
    """Build and provision the campus; returns ``(campus, users)``."""
    campus = ITCSystem(SystemConfig(
        mode="revised",
        clusters=clusters,
        workstations_per_cluster=workstations_per_cluster,
        functional_payload_crypto=False,
        cache_max_files=120,
        seed=seed,
    ))
    # batch_setup coalesces the per-mutation replica pushes; fall back to a
    # no-op so this script still measures the pre-optimisation baseline.
    batch = getattr(campus, "batch_setup", contextlib.nullcontext)
    with batch():
        users = provision_campus(campus, hot_files=12, cold_files=30,
                                 shared_files=40, binary_files=20)
        provision_protection_domain(campus, projects_per_dept, projects_per_user)
    return campus, users


def run_campus_benchmark(shape=None) -> dict:
    """One full benchmark run; returns the report dict."""
    shape = dict(CAMPUS_SHAPE if shape is None else shape)

    setup_start = time.perf_counter()
    campus, users = build_campus(**shape)
    setup_wall = time.perf_counter() - setup_start

    events_before = campus.sim._sequence
    run_start = time.perf_counter()
    summary = run_campus_day(
        campus, users, duration=shape["duration"], warmup=shape["warmup"]
    )
    run_wall = time.perf_counter() - run_start
    events = campus.sim._sequence - events_before

    return {
        "shape": {
            "clusters": shape["clusters"],
            "workstations": shape["clusters"] * shape["workstations_per_cluster"],
            "groups": 1 + shape["clusters"] * (1 + shape["projects_per_dept"]),
            "virtual_duration_seconds": shape["duration"],
            "virtual_warmup_seconds": shape["warmup"],
        },
        "setup_wall_seconds": round(setup_wall, 3),
        "run_wall_seconds": round(run_wall, 3),
        "events_scheduled": events,
        "events_per_second": round(events / run_wall) if run_wall else 0,
        "virtual_actions": summary["actions"],
        "virtual_failures": summary["failures"],
        "virtual_hit_ratio": round(summary["hit_ratio"], 6),
        "virtual_busiest_cpu": round(summary["busiest_cpu"], 6),
        "virtual_backbone_bytes": summary["cross_cluster_bytes"],
    }


def _print_report(report: dict) -> None:
    shape = report["shape"]
    print(f"campus: {shape['clusters']} clusters, {shape['workstations']} "
          f"workstations, {shape['groups']} groups")
    print(f"  setup          {report['setup_wall_seconds']:8.2f} wall s")
    print(f"  run            {report['run_wall_seconds']:8.2f} wall s "
          f"({shape['virtual_duration_seconds'] + shape['virtual_warmup_seconds']:.0f} virtual s)")
    print(f"  events         {report['events_scheduled']:>10d}  "
          f"({report['events_per_second']:,} events/s)")
    print(f"  actions        {report['virtual_actions']:>10d}  "
          f"(failures {report['virtual_failures']})")
    print(f"  hit ratio      {report['virtual_hit_ratio']:10.4f}")
    print(f"  busiest CPU    {report['virtual_busiest_cpu']:10.4f}")
    print(f"  backbone bytes {report['virtual_backbone_bytes']:>10d}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down shape under a hard time budget (CI)")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="also write the report as JSON")
    args = parser.parse_args()

    report = run_campus_benchmark(SMOKE_SHAPE if args.smoke else None)
    _print_report(report)

    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.smoke:
        verdict = "ok" if report["run_wall_seconds"] <= SMOKE_BUDGET_SECONDS else "TOO SLOW"
        print(f"smoke budget: {report['run_wall_seconds']:.2f} s of "
              f"{SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
        if verdict != "ok":
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
