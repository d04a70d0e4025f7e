"""Metropolis-scale wall-clock benchmark: 200 → 1,000 → 5,000 workstations.

The paper sizes Vice for "more than 5,000 workstations" on one campus
(§1-§2); ``bench_campus`` stops at 200.  This bench sweeps the same
Andrew-mix workload across three scales and reports kernel events per
wall-clock second at each — the headline number for the event kernel
(one binary heap + cascade batching).

Virtual durations shrink as the campus grows so every scale finishes in
comparable wall time: the point is queue behavior under a large *pending
set* (5,000 workstations keep ~10-25k events pending), not a long day.

Reported per scale:

* ``events_per_second``  — the headline throughput number;
* ``setup_wall_seconds`` / ``run_wall_seconds``;
* ``peak_rss_mib``       — the process's resident high-water mark once the
  scale has run (scales run smallest first, so it is that scale's peak);
* ``queue``              — the event queue's own stats (pushes, cascade
  events, dead-event counts) as exposed by ``sim.scheduler_stats``;
* ``virtual_*``          — simulated results, byte-identical across perf
  commits.

Usage::

    PYTHONPATH=src python benchmarks/bench_metropolis.py             # all scales
    PYTHONPATH=src python benchmarks/bench_metropolis.py --smoke     # CI budget
    PYTHONPATH=src python benchmarks/bench_metropolis.py --json F
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
    _BENCH = os.path.dirname(os.path.abspath(__file__))
    if _BENCH not in sys.path:
        sys.path.insert(0, _BENCH)

from bench_campus import build_campus
from repro.workload import run_campus_day

__all__ = ["run_scale", "run_metropolis_benchmark", "SCALES", "SMOKE_SCALES"]

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

# Absolute wall-clock budget for the whole --smoke sweep, seconds.  The
# smoke sweep takes ~8 s on the reference container; the budget leaves
# generous headroom for slow shared CI runners.
SMOKE_BUDGET_SECONDS = 120.0

# Memory budget for the --smoke sweep, MiB of peak RSS after the
# 1,000-workstation scale: the measured 115.8 MiB + 25 %, so that the next
# accumulation of per-server state fails here.  (144.1 MiB while the first
# read of a provisioned body kept its bytes in the server's inode and the
# Venus cache; 162.7 MiB while every server held its own copy of the
# location and protection databases; 176 MiB while every connection kept
# its last 128 replies; 710 MiB when provisioning built all 42,060 file
# bodies.)
SMOKE_BUDGET_RSS_MIB = 145.0

_SHARED_SHAPE = dict(projects_per_dept=25, projects_per_user=3)


def run_scale(scale: dict) -> dict:
    """Build one campus at ``scale`` and run it; returns the report dict."""
    shape = dict(_SHARED_SHAPE, **scale)

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
        "name": scale["name"],
        "workstations": shape["clusters"] * shape["workstations_per_cluster"],
        "clusters": shape["clusters"],
        "virtual_seconds": shape["duration"] + shape["warmup"],
        "setup_wall_seconds": round(setup_wall, 3),
        "run_wall_seconds": round(run_wall, 3),
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
              f"{'rss MiB':>8} {'events':>9} {'events/s':>9} {'actions':>8}")
    print(header)
    for scale in report["scales"]:
        print(f"  {scale['name']:<12} {scale['workstations']:>6} "
              f"{scale['setup_wall_seconds']:>8.2f} {scale['run_wall_seconds']:>8.2f} "
              f"{scale['peak_rss_mib']:>8.1f} "
              f"{scale['events_scheduled']:>9d} {scale['events_per_second']:>9,} "
              f"{scale['virtual_actions']:>8d}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="200 + 1,000 workstations under a hard budget (CI)")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="also write the report as JSON")
    args = parser.parse_args()

    sweep_start = time.perf_counter()
    report = run_metropolis_benchmark(SMOKE_SCALES if args.smoke else None)
    sweep_wall = time.perf_counter() - sweep_start
    report["sweep_wall_seconds"] = round(sweep_wall, 3)
    _print_report(report)

    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.smoke:
        verdict = "ok" if sweep_wall <= SMOKE_BUDGET_SECONDS else "TOO SLOW"
        print(f"smoke budget: {sweep_wall:.2f} s of "
              f"{SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
        peak = report["scales"][-1]["peak_rss_mib"]
        fits = "ok" if peak <= SMOKE_BUDGET_RSS_MIB else "TOO BIG"
        print(f"smoke memory: {peak:.1f} MiB of "
              f"{SMOKE_BUDGET_RSS_MIB:.1f} MiB allowed  {fits}")
        if verdict != "ok" or fits != "ok":
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
