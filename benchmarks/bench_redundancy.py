"""The redundancy matrix: replication factor x fault plan.

Read-write replication (see ``repro.vice.replication``) exists to buy
availability with storage: every volume lives on N servers, a controller
declares dead servers after missed heartbeats, the most up-to-date
survivor is promoted, and Venus retries against the new custodian.  This
bench quantifies the trade.  The same synthetic campus day runs for each
replication factor under each fault plan —

* ``clean``          — no faults; every factor must report 100 %
  availability (replication must not break a healthy campus);
* ``server-crash``   — one cluster server crashes for longer than the
  heartbeat detection time; factors >= 2 fail over, factor 1 rides the
  outage (availability and MTTR must improve with the factor);
* ``lossy-backbone`` — the backbone drops/corrupts/duplicates packets;
  heartbeats and propagation retransmit through it;
* ``partition``      — ``cluster0`` is severed from the backbone: the
  partitioned primary's lease expires (writes fence), replicas outside
  the partition take over for the rest of the campus.

Reported per (factor, plan) cell:

* ``availability`` / MTTR percentiles / ``failovers`` (controller
  promotions and the deaths that triggered them);
* ``lost_writes`` — deferred write-backs dropped after retries plus
  divergent replica writes discarded during resync;
* ``storage_overhead`` — bytes across all volume copies over bytes in
  one copy (the price of the factor);
* ``wall_seconds`` — what the cell costs to execute.

Usage::

    PYTHONPATH=src python benchmarks/bench_redundancy.py           # full
    PYTHONPATH=src python benchmarks/bench_redundancy.py --smoke   # CI budget
    PYTHONPATH=src python benchmarks/bench_redundancy.py --json F  # write JSON
"""

import argparse
import json
import os
import sys
import time

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro import ITCSystem, SystemConfig
from repro.faults import Fault, FaultPlan, clean_plan
from repro.vice.erasure import ErasureConfig, stripe_health
from repro.vice.replication import DETECTION_TIME, ReplicationConfig
from repro.workload import provision_campus, run_campus_day

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
ERASURE_SHAPE = dict(clusters=7, workstations_per_cluster=4,
                     duration=1800.0, warmup=300.0)

# Scaled down for CI: the corner factors under the two decisive plans.
SMOKE_SHAPE = dict(clusters=3, workstations_per_cluster=2,
                   duration=600.0, warmup=60.0)
SMOKE_FACTORS = (1, 3)
SMOKE_PLANS = ("clean", "server-crash")
# The coded smoke column: 2+1 fits the three smoke servers exactly (no
# spare — lost fragments heal at rejoin instead of rebuild-onto-spare).
ERASURE_SMOKE_SCHEME = (2, 1)

# Absolute wall-clock budget for --smoke, seconds (whole matrix).  The
# smoke matrix takes a couple of seconds on the reference container; the
# budget leaves generous headroom for slow shared CI runners.
SMOKE_BUDGET_SECONDS = 30.0


def _plan_for(name, shape):
    """One named fault plan, windows placed inside the measured day.

    The crash and partition windows outlast the heartbeat detection time
    (missed beats x interval), so replicated factors actually fail over
    rather than riding the outage on retransmissions.
    """
    warmup, duration = shape["warmup"], shape["duration"]
    fault_at = warmup + 0.3 * duration
    outage = max(0.15 * duration, 4.0 * DETECTION_TIME)
    if name == "clean":
        return clean_plan()
    if name == "server-crash":
        return FaultPlan(name=name, faults=(
            Fault("server_crash", "server0", start=fault_at, duration=outage),
        ))
    if name == "lossy-backbone":
        return FaultPlan(name=name, faults=(
            Fault("link", "backbone", start=warmup, duration=duration,
                  loss=0.03, corrupt=0.01, duplicate=0.01),
        ))
    if name == "partition":
        return FaultPlan(name=name, faults=(
            Fault("partition", "cluster0", start=fault_at, duration=outage),
        ))
    raise ValueError(f"unknown plan {name!r}")


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


def _run_cell(factor, plan, shape, erasure=None):
    """One campus day at one redundancy setting under one plan."""
    start_wall = time.perf_counter()
    if erasure is not None:
        replication = None
        econf = ErasureConfig(data=erasure[0], parity=erasure[1])
    else:
        econf = None
        replication = ReplicationConfig(factor=factor) if factor > 1 else None
    campus = ITCSystem(SystemConfig(
        mode="revised",
        clusters=shape["clusters"],
        workstations_per_cluster=shape["workstations_per_cluster"],
        functional_payload_crypto=False,
        replication=replication,
        erasure=econf,
        fault_plan=plan,
    ))
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    summary = run_campus_day(campus, users, duration=shape["duration"],
                             warmup=shape["warmup"])
    wall = time.perf_counter() - start_wall

    lost_flushes = sum(ws.venus.lost_writes for ws in campus.workstations)
    divergent = sum(
        server.replication.divergent_discarded
        for server in campus.servers if server.replication is not None
    )
    venus_failovers = sum(ws.venus.failovers for ws in campus.workstations)
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
        "venus_failovers": venus_failovers,
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
        row["degraded_reads"] = sum(
            ws.venus.degraded_reads for ws in campus.workstations
        )
        row["rebuild"] = {
            "bytes": sum(s.replication.rebuild_bytes for s in campus.servers
                         if s.replication is not None),
            "stripe_repairs": sum(
                s.replication.stripe_repairs for s in campus.servers
                if s.replication is not None
            ),
        }
        row["stripe_health"] = round(stripe_health(campus), 6)
        row["controller"]["rebuilds"] = controller.rebuilds
        row["controller"]["rebuild_failures"] = controller.rebuild_failures
    return row


def run_redundancy_benchmark(shape=None, factors=FACTORS, plans=PLANS,
                             erasure=None, erasure_shape=None) -> dict:
    """The whole matrix; returns the report dict keyed factor -> plan.

    With ``erasure=(k, m)`` the report gains a coded column under
    ``report["erasure"]`` — same plans, own campus shape (a k+m stripe
    needs k+m servers, plus a spare to rebuild onto).
    """
    if shape is None:
        shape = SHAPE
    report = {"shape": dict(shape), "factors": {}}
    for factor in factors:
        rows = {}
        for name in plans:
            rows[name] = _run_cell(factor, _plan_for(name, shape), shape)
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
    print(f"  {'factor':>6s} {'plan':16s} {'avail':>7s} {'fail':>5s} "
          f"{'MTTR p50':>9s} {'MTTR p90':>9s} {'failovers':>9s} "
          f"{'lost':>5s} {'storage':>8s} {'wall s':>7s}")
    def _rows(label, rows):
        for name, row in rows.items():
            mttr = row["mttr"]
            failovers = row.get("controller", {}).get("promotions", 0)
            print(f"  {label:>6s} {name:16s} {row['availability']:7.2%} "
                  f"{row['failures']:>5d} {mttr['p50']:>8.1f}s "
                  f"{mttr['p90']:>8.1f}s {failovers:>9d} "
                  f"{row['lost_writes']['total']:>5d} "
                  f"{row['storage']['overhead']:>7.2f}x "
                  f"{row['wall_seconds']:>7.2f}")

    for factor, rows in report["factors"].items():
        _rows(factor, rows)
    coded = report.get("erasure")
    if coded:
        _rows("+".join(str(n) for n in coded["scheme"]), coded["rows"])
        for name, row in coded["rows"].items():
            print(f"         {name:16s} degraded reads {row['degraded_reads']}, "
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
                             "plans under a hard time budget (CI)")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="also write the report as JSON")
    args = parser.parse_args()

    if args.smoke:
        # What run_all.py tracks: the coded column shares the smoke shape.
        report = run_redundancy_benchmark(SMOKE_SHAPE, SMOKE_FACTORS,
                                          SMOKE_PLANS,
                                          erasure=ERASURE_SMOKE_SCHEME)
    else:
        report = run_redundancy_benchmark(SHAPE, FACTORS, PLANS,
                                          erasure=ERASURE_SCHEME,
                                          erasure_shape=ERASURE_SHAPE)
    _print_report(report)
    status = _gate(report)

    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    if args.smoke:
        all_rows = [row for rows in report["factors"].values()
                    for row in rows.values()]
        all_rows += list(report["erasure"]["rows"].values())
        wall_total = sum(row["wall_seconds"] for row in all_rows)
        verdict = "ok" if wall_total <= SMOKE_BUDGET_SECONDS else "TOO SLOW"
        print(f"smoke budget: {wall_total:.2f} s of "
              f"{SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
        if verdict != "ok":
            return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
