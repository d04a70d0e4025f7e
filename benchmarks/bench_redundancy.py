"""The redundancy matrix: availability under faults, by redundancy mode.

§4.4's claims are about behaviour under failure: a crashed custodian
salvages and returns, workstations ride out Vice outages, the network is
"not assumed to be reliable".  Read-write replication (see
``repro.vice.replication``) and erasure coding buy availability with
storage: every volume lives on N servers (or as k+m fragments), a
controller declares dead servers after missed heartbeats, the most
up-to-date survivor is promoted, and Venus retries against the new
custodian.  No redundancy, copies and coding are points on one axis, so
one matrix measures them all: the same synthetic campus day runs for each
replication factor (factor 1 is the unredundant campus) and a coded
column, under each fault plan —

* ``clean``          — no faults; every cell must report 100 %
  availability and no outage (redundancy must not break a healthy
  campus, and the accounting must not invent failures);
* ``server-crash``   — one cluster server crashes for longer than the
  heartbeat detection time; factors >= 2 fail over, factor 1 rides the
  outage and salvages back (availability and MTTR must improve with the
  factor);
* ``lossy-backbone`` — the backbone drops/corrupts/duplicates packets;
  RPCs, heartbeats and propagation retransmit through it;
* ``partition``      — ``cluster0`` is severed from the backbone: the
  partitioned primary's lease expires (writes fence), replicas outside
  the partition take over for the rest of the campus (full matrix only).

Factor 1 also runs ``server-crash-deferred``: the same crash with
``write_policy="deferred"``, so stores issued while the server is down
stay dirty in the Venus cache and flush after recovery (recovered vs
at-risk writes; the other cells keep the paper's store-on-close).

Reported per (factor, plan) cell:

* ``availability`` / MTTR and time-to-first-success percentiles /
  ``failovers`` (controller promotions and the deaths that triggered
  them) — virtual time, byte-identical across runs for a given seed;
* ``lost_writes`` — deferred write-backs dropped after retries plus
  divergent replica writes discarded during resync;
* ``writes`` — stores, deferred flushes and entries still dirty at the
  end of the day;
* ``retransmissions`` / ``corrupt_rejected`` / ``injections`` — what the
  fault plan did to the wire and the disks;
* ``storage_overhead`` — bytes across all volume copies over bytes in
  one copy (the price of the factor);
* ``wall_seconds`` — what the cell costs to execute.

Usage::

    PYTHONPATH=src python benchmarks/bench_redundancy.py           # full
    PYTHONPATH=src python benchmarks/bench_redundancy.py --smoke   # CI budgets
    PYTHONPATH=src python benchmarks/bench_redundancy.py --out DIR
        # DIR/report.json, and DIR/timeline.json: the factor-1
        # server-crash day's fault/outage timeline
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

from repro.faults import PRESETS
from repro.vice.erasure import ErasureConfig, stripe_health
from repro.vice.replication import DETECTION_TIME, ReplicationConfig
from repro.workload.scenario import SCENARIOS

__all__ = ["run_redundancy_benchmark",
           "SHAPE", "SMOKE_SHAPE", "ERASURE_SCHEME", "ERASURE_SMOKE_SCHEME"]

# Three clusters so factor-2 volumes keep a spare to re-replicate onto
# after a failover, and factor 3 actually spans three custodians.
SHAPE = dict(clusters=3, workstations_per_cluster=4,
             duration=1800.0, warmup=300.0)
FACTORS = (1, 2, 3)
PLANS = ("clean", "server-crash", "lossy-backbone", "partition")

# The coded column: k+m fragments on k+m servers plus one spare to
# rebuild onto, contrasted against the replication factors above.
ERASURE_SCHEME = (4, 2)
ERASURE_SHAPE = dict(SHAPE, clusters=7)

# The write-back row, factor 1 only: the server-crash fault under
# deferred store-through.
DEFERRED_PLAN = "server-crash-deferred"

# Scaled down for CI: the corner factors under every plan but the
# partition.
SMOKE_SHAPE = dict(clusters=3, workstations_per_cluster=2,
                   duration=600.0, warmup=60.0)
SMOKE_FACTORS = (1, 3)
SMOKE_PLANS = ("clean", "server-crash", "lossy-backbone")
# The coded smoke column: 2+1 fits the three smoke servers exactly (no
# spare — lost fragments heal at rejoin instead of rebuild-onto-spare).
ERASURE_SMOKE_SCHEME = (2, 1)

# Process CPU budget for the whole --smoke matrix, seconds: 2.5x the
# 0.58 s reading it was set at on the reference container (2-vCPU Xeon VM,
# Python 3.11), so a 2x slowdown fails while ordinary noise does not.
# Reading now: 0.63-0.79 s.
SMOKE_BUDGET_CPU_SECONDS = 1.45

# Memory budget for the --smoke matrix, MiB of peak RSS at its end: the
# 27.2-27.3 MiB readings + 25 %, so that the next accumulation of stripe
# state fails here.  (28.7-28.8 MiB while every shipped volume image and
# fragment set was built into bytes; 32.0-32.4 MiB before the per-file
# and per-host cuts; 39.2-39.9 MiB while provisioning encoded every coded
# file.)
SMOKE_BUDGET_RSS_MIB = 34.1


def _plan_for(name, shape):
    """One named fault plan: a ``repro.faults`` preset, its window placed
    inside the measured day.

    The crash and partition windows outlast the heartbeat detection time
    (missed beats x interval), so replicated factors actually fail over
    rather than riding the outage on retransmissions.
    """
    warmup, duration = shape["warmup"], shape["duration"]
    if name == "clean":
        return PRESETS[name]()
    if name == "lossy-backbone":
        return PRESETS[name](start=warmup, duration=duration)
    window = dict(at=warmup + 0.3 * duration,
                  outage=max(0.15 * duration, 4.0 * DETECTION_TIME))
    if name == DEFERRED_PLAN:  # the same crash, under deferred write-back
        return PRESETS["server-crash"](**window).with_(name=name)
    return PRESETS[name](**window)


def _storage(campus):
    """(bytes in one copy of everything, bytes across all copies).

    Replicated copies store whole file bodies (``used_bytes``); coded
    stripe members store fragments (``fragment_bytes``) while the
    logical file size lives in ``logical_bytes``.  Counting both makes
    the same ``overhead`` field report ≈N for factor-N replication and
    ≈(k+m)/k for a k+m stripe.
    """
    total = 0
    primary = 0
    for server in campus.servers:
        for volume in server.volumes.values():
            total += volume.used_bytes + volume.fragment_bytes
            if volume.replica_role != "secondary":
                primary += volume.used_bytes + volume.logical_bytes
    return primary, total


def _run_cell(factor, plan, shape, erasure=None, timeline=""):
    """One campus day, the catalogue's ``coded-crash`` row with its
    redundancy, shape, write policy and plan replaced; with ``timeline``,
    also write the day's fault/outage timeline there."""
    start_wall = time.perf_counter()
    campus, summary = SCENARIOS["coded-crash"]().with_(
        replication=ReplicationConfig(factor=factor)
        if erasure is None and factor > 1 else None,
        erasure=None if erasure is None else ErasureConfig(*erasure),
        write_policy="deferred" if plan.name == DEFERRED_PLAN else "on-close",
        fault_plan=plan, crash_at=None, **shape).day()
    wall = time.perf_counter() - start_wall
    if timeline:
        count = campus.availability.write_timeline(timeline)
        print(f"timeline: {count} events -> {timeline}")

    venus = [ws.venus for ws in campus.workstations]
    planes = [s.replication for s in campus.servers if s.replication is not None]
    lost_flushes = sum(v.lost_writes for v in venus)
    divergent = sum(plane.divergent_discarded for plane in planes)
    primary_bytes, total_bytes = _storage(campus)
    controller = campus.replication_controller
    availability = summary["availability"]
    row = {
        "factor": factor,
        "plan": plan.to_dict(),
        "wall_seconds": round(wall, 3),
        "virtual_actions": summary["actions"],
        "availability": round(availability["availability"], 6),
        "attempts": availability["attempts"],
        "failures": availability["failures"],
        "outages": availability["outages"],
        "mttr": {k: round(v, 3) if isinstance(v, float) else v
                 for k, v in availability["mttr"].items()},
        "ttfs": {k: round(v, 3) if isinstance(v, float) else v
                 for k, v in availability["ttfs"].items()},
        "lost_writes": {
            "flushes_dropped": lost_flushes,
            "divergent_discarded": divergent,
            "total": lost_flushes + divergent,
        },
        "storage": {
            "primary_bytes": primary_bytes,
            "total_bytes": total_bytes,
            "overhead": round(total_bytes / primary_bytes, 3)
            if primary_bytes else 0.0,
        },
        "venus_failovers": sum(v.failovers for v in venus),
        "writes": {
            "stores": sum(v.stores for v in venus),
            "deferred_flushes": sum(v.deferred_flushes for v in venus),
            "dirty_remaining": sum(entry.dirty for v in venus
                                   for entry in v.cache),
        },
        "retransmissions": sum(v.node.retransmissions for v in venus),
        "corrupt_rejected": (
            sum(v.node.corrupt_rejected for v in venus)
            + sum(server.node.corrupt_rejected for server in campus.servers)
        ),
        "injections": {k: v for k, v in campus.fault_scheduler.stats.items()
                       if v},
    }
    if controller is not None:
        row["controller"] = {
            "heartbeats": controller.heartbeats,
            "deaths_declared": controller.deaths_declared,
            "promotions": controller.promotions,
            "rereplications": controller.rereplications,
            "rejoins": controller.rejoins,
        }
    if erasure is not None:
        row["erasure"] = list(erasure)
        row["degraded_reads"] = sum(v.degraded_reads for v in venus)
        row["rebuild"] = {
            "bytes": sum(plane.rebuild_bytes for plane in planes),
            "stripe_repairs": sum(plane.stripe_repairs for plane in planes),
        }
        row["stripe_health"] = round(stripe_health(campus), 6)
        row["controller"]["rebuilds"] = controller.rebuilds
        row["controller"]["rebuild_failures"] = controller.rebuild_failures
    return row


def run_redundancy_benchmark(shape=SHAPE, factors=FACTORS, plans=PLANS,
                             erasure=None, erasure_shape=None,
                             timeline="") -> dict:
    """The whole matrix; returns the report dict keyed factor -> plan.

    Factor 1 adds the ``server-crash-deferred`` row, and with
    ``timeline`` writes its ``server-crash`` day's timeline there.  With
    ``erasure=(k, m)`` the report gains a coded column under
    ``report["erasure"]`` — same plans, own campus shape (a k+m stripe
    needs k+m servers, plus a spare to rebuild onto).
    """
    report = {"shape": dict(shape), "factors": {}}
    for factor in factors:
        rows = {}
        for name in (*plans, DEFERRED_PLAN) if factor == 1 else plans:
            written = timeline if (factor, name) == (1, "server-crash") else ""
            rows[name] = _run_cell(factor, _plan_for(name, shape), shape,
                                   timeline=written)
        report["factors"][str(factor)] = rows
    if erasure is not None:
        eshape = dict(shape, **(erasure_shape or {}))
        label = f"{erasure[0]}+{erasure[1]}"
        rows = {
            name: _run_cell(label, _plan_for(name, eshape), eshape,
                            erasure=erasure)
            for name in plans
        }
        report["erasure"] = {"scheme": list(erasure), "shape": eshape,
                             "rows": rows}
    return report


def _print_report(report: dict) -> None:
    shape = report["shape"]
    print(f"redundancy matrix: {shape['clusters']} clusters x "
          f"{shape['workstations_per_cluster']} workstations, "
          f"{shape['duration']:.0f}s measured")
    print(f"  {'factor':>6s} {'plan':21s} {'avail':>7s} {'fail':>5s} "
          f"{'MTTR p50':>9s} {'MTTR p90':>9s} {'failovers':>9s} "
          f"{'rexmit':>6s} {'dirty':>5s} {'lost':>5s} {'storage':>8s} "
          f"{'wall s':>7s}")
    def _rows(label, rows):
        for name, row in rows.items():
            mttr = row["mttr"]
            failovers = row.get("controller", {}).get("promotions", 0)
            print(f"  {label:>6s} {name:21s} {row['availability']:7.2%} "
                  f"{row['failures']:>5d} {mttr['p50']:>8.1f}s "
                  f"{mttr['p90']:>8.1f}s {failovers:>9d} "
                  f"{row['retransmissions']:>6d} "
                  f"{row['writes']['dirty_remaining']:>5d} "
                  f"{row['lost_writes']['total']:>5d} "
                  f"{row['storage']['overhead']:>7.2f}x "
                  f"{row['wall_seconds']:>7.2f}")

    for factor, rows in report["factors"].items():
        _rows(factor, rows)
    coded = report.get("erasure")
    if coded:
        _rows("+".join(str(n) for n in coded["scheme"]), coded["rows"])
        for name, row in coded["rows"].items():
            print(f"         {name:21s} degraded reads {row['degraded_reads']}, "
                  f"rebuild {row['rebuild']['bytes']} B in "
                  f"{row['rebuild']['stripe_repairs']} repairs, "
                  f"stripe health {row['stripe_health']:.2f}")


def _gate(report: dict) -> int:
    """The acceptance checks; returns a nonzero exit code on violation."""
    status = 0
    factors = report["factors"]
    for factor, rows in factors.items():
        clean = rows.get("clean")
        if clean and (clean["failures"] or clean["outages"]):
            print(f"factor {factor} clean plan not clean: "
                  f"{clean['failures']} failures, {clean['outages']} outages",
                  file=sys.stderr)
            status = 1
    for factor, rows in factors.items():
        clean = rows.get("clean")
        if clean and int(factor) > 1:
            overhead = clean["storage"]["overhead"]
            if abs(overhead - int(factor)) > 0.15 * int(factor):
                print(f"factor {factor} storage overhead {overhead:.2f}x "
                      f"not ≈{factor}x", file=sys.stderr)
                status = 1
    if factors:
        base = factors.get("1", {}).get("server-crash")
        best = factors.get(max(factors, key=int), {}).get("server-crash")
        if base and best and best is not base:
            if best["availability"] < base["availability"]:
                print(f"replication did not help: factor "
                      f"{max(factors, key=int)} availability "
                      f"{best['availability']:.4f} < factor 1 "
                      f"{base['availability']:.4f} under server-crash",
                      file=sys.stderr)
                status = 1
    coded = report.get("erasure")
    if coded:
        k, m = coded["scheme"]
        expected = (k + m) / k
        clean = coded["rows"].get("clean")
        if clean:
            if clean["failures"] or clean["outages"]:
                print(f"coded clean plan not clean: {clean['failures']} "
                      f"failures, {clean['outages']} outages", file=sys.stderr)
                status = 1
            overhead = clean["storage"]["overhead"]
            if abs(overhead - expected) > 0.1 * expected:
                print(f"coded storage overhead {overhead:.2f}x not "
                      f"≈{expected:.2f}x", file=sys.stderr)
                status = 1
        crash = coded["rows"].get("server-crash")
        if crash:
            # The coded column's promise: degrade-read through a dead
            # server with zero lost writes, and heal the stripe.
            if crash["lost_writes"]["total"]:
                print(f"coded server-crash lost "
                      f"{crash['lost_writes']['total']} writes",
                      file=sys.stderr)
                status = 1
            if crash["degraded_reads"] == 0:
                print("coded server-crash saw no degraded reads",
                      file=sys.stderr)
                status = 1
            if crash["stripe_health"] < 1.0:
                print(f"stripe health {crash['stripe_health']:.2f} "
                      f"not restored after server-crash", file=sys.stderr)
                status = 1
            factor2 = factors.get("2", {}).get("server-crash")
            if factor2 and crash["availability"] < factor2["availability"]:
                print(f"coded availability {crash['availability']:.4f} < "
                      f"factor-2 {factor2['availability']:.4f} under "
                      f"server-crash", file=sys.stderr)
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="corner factors and a 2+1 stripe x decisive "
                             "plans under hard CPU and memory budgets (CI)")
    parser.add_argument("--out", metavar="DIR", default="",
                        help="also write the report to DIR/report.json and "
                             "the factor-1 server-crash day's fault/outage "
                             "timeline to DIR/timeline.json")
    args = parser.parse_args()
    timeline = ""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        timeline = os.path.join(args.out, "timeline.json")

    cpu_start = time.process_time()
    if args.smoke:  # the coded column shares the smoke shape
        report = run_redundancy_benchmark(
            SMOKE_SHAPE, SMOKE_FACTORS, SMOKE_PLANS,
            erasure=ERASURE_SMOKE_SCHEME, timeline=timeline)
    else:
        report = run_redundancy_benchmark(
            erasure=ERASURE_SCHEME, erasure_shape=ERASURE_SHAPE,
            timeline=timeline)
    report["cpu_seconds"] = round(time.process_time() - cpu_start, 3)
    report["peak_rss_mib"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    _print_report(report)
    status = _gate(report)

    if args.out:
        path = os.path.join(args.out, "report.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")

    if args.smoke:
        cpu = report["cpu_seconds"]
        verdict = "ok" if cpu <= SMOKE_BUDGET_CPU_SECONDS else "TOO SLOW"
        print(f"smoke budget: {cpu:.2f} CPU s of "
              f"{SMOKE_BUDGET_CPU_SECONDS:.2f} s allowed  {verdict}")
        peak = report["peak_rss_mib"]
        fits = "ok" if peak <= SMOKE_BUDGET_RSS_MIB else "TOO BIG"
        print(f"smoke memory: {peak:.1f} MiB of "
              f"{SMOKE_BUDGET_RSS_MIB:.1f} MiB allowed  {fits}")
        if verdict != "ok" or fits != "ok":
            return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
