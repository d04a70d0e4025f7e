"""Gated campus days: the redundancy matrix, the metropolis sweep and the soak.

The paper makes its case with measured campus days: §5.2's call mix, hit
ratio and utilization, Vice sized for "more than 5,000 workstations"
(§1-§2), and §4.4's behaviour under failure.  This harness runs those
days as rows of one table (``ROWS``).  A row is a scenario-catalogue day
(``repro.workload.scenario``) with its ``with_()`` overrides and the
virtual outcome it is pinned to.  Rows fall into three groups, run in
this order so that each group's peak-RSS reading comes from a process
that has run nothing larger before it:

* ``redundancy`` — the same day for each replication factor (1 is the
  unredundant campus) and a coded column, under ``clean`` (no failure,
  no outage allowed), ``server-crash`` (longer than heartbeat detection,
  so factors >= 2 fail over), ``lossy-backbone`` and, in the full matrix,
  ``partition`` (``cluster0`` severed: its primary's lease expires and
  replicas outside take over); factor 1 also runs the crash under
  deferred write-back (stores made while the server is down stay dirty
  and flush after recovery);
* ``metropolis`` — 200 → 1,000 → 5,000 workstations (the last in the
  full sweep only) in clusters of 50 under a Grapevine-style group graph;
  the day shrinks as the campus grows, because the point is queue
  behaviour under a large pending set, not a long day;
* ``soak`` — six virtual hours at 200 workstations under chaos, run as
  the ``python -m repro day --diurnal --invariants`` recipe, so every
  soak invariant is checked each 600-second window.

``run_row`` turns a row into one flat record: its shape; its host cost
(``wall_seconds`` and ``cpu_seconds`` to build, run and read the day,
``peak_rss_mib``, the process's resident high-water mark after it); its
virtual outcome (``virtual_*``, identical across runs); and what its
plan and redundancy did (availability, MTTR and time to first success,
the fault/outage timeline, failovers, lost writes, storage overhead,
degraded reads, rebuild traffic).  ``gate`` fails on a moved pin, a violated soak invariant or a
failed matrix check and, under ``--smoke``, on a blown budget
(``BUDGETS``).

Usage::

    PYTHONPATH=src python benchmarks/bench_days.py            # full sweep and matrix
    PYTHONPATH=src python benchmarks/bench_days.py --smoke    # the gated set (CI)
    PYTHONPATH=src python benchmarks/bench_days.py --out DIR
        # DIR/report.json (every record), and the soak day's record
        # (summary, windows, ops log, timeline, metrics) and plan
"""

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.faults import PRESETS
from repro.faults.plan import ChaosConfig, FaultPlan
from repro.vice.erasure import ErasureConfig, stripe_health
from repro.vice.replication import DETECTION_TIME, ReplicationConfig
from repro.workload import run_campus_day
from repro.workload.scenario import SCENARIOS

__all__ = ["ROWS", "BUDGETS", "Row", "run_row", "gate", "print_report"]

# ``changes`` go to the catalogue row's ``with_()``; ``pins`` are record
# fields that must come out exactly so (a change meant to move one
# re-records it and says why); a row with ``day_flags`` runs through
# ``python -m repro day`` with them.
Row = collections.namedtuple("Row", "group name scenario changes pins day_flags",
                             defaults=({}, ()))

DEFERRED = "server-crash-deferred"


def _plan(name, shape):
    """A ``repro.faults`` preset, its window inside the measured day and
    longer than heartbeat detection, so redundant volumes fail over
    rather than ride the outage on retransmissions."""
    warmup, duration = shape["warmup"], shape["duration"]
    if name == "clean":
        return PRESETS[name]()
    if name == "lossy-backbone":
        return PRESETS[name](start=warmup, duration=duration)
    window = dict(at=warmup + 0.3 * duration,
                  outage=max(0.15 * duration, 4.0 * DETECTION_TIME))
    if name == DEFERRED:
        return PRESETS["server-crash"](**window).with_(name=name)
    return PRESETS[name](**window)


def _matrix(shape, factors, plans, scheme, coded_clusters):
    """The redundancy group: ``coded-crash`` with its redundancy, shape,
    write policy and plan replaced, per factor and plan, then the k+m
    column."""
    cells = []
    for factor in factors:
        for plan in (*plans, DEFERRED) if factor == 1 else plans:
            cells.append(Row("redundancy", f"{factor} {plan}", "coded-crash", dict(
                shape, replication=ReplicationConfig(factor) if factor > 1 else None,
                erasure=None, crash_at=None, fault_plan=_plan(plan, shape),
                write_policy="deferred" if plan == DEFERRED else "on-close")))
    coded = dict(shape, clusters=coded_clusters)
    for plan in plans:
        cells.append(Row("redundancy", f"{scheme[0]}+{scheme[1]} {plan}", "coded-crash",
                         dict(coded, erasure=ErasureConfig(*scheme), crash_at=None,
                              fault_plan=_plan(plan, coded))))
    return cells


# Six measured virtual hours at 200 workstations, diurnally paced, under
# chaos whose arrivals start at the end of the warm-up (a clean baseline).
SOAK = Row("soak", "soak", "proto-20", dict(
    mode="revised", clusters=4, workstations_per_cluster=50,
    warmup=900.0, duration=21600.0,
    fault_plan=FaultPlan(name="soak-chaos", seed=0, chaos=ChaosConfig(
        start=900.0, mean_interval=900.0, mean_outage=60.0))),
    pins=dict(virtual_actions=101203, availability=0.999694,
              faults_injected=33, windows=36),
    day_flags=("--diurnal", "--window", "600", "--invariants"))

# The matrix's campus has three clusters, so factor-2 volumes keep a
# spare to re-replicate onto and factor 3 spans three custodians; a 4+2
# stripe needs six servers plus a spare to rebuild onto.  The smoke set
# runs the corner factors and a 2+1 stripe, which fits its three servers
# exactly (lost fragments heal at rejoin), under every plan but the
# partition.  Its metropolis days are shorter, so metro-1000 fits its
# budget with the same code paths and the same pending-set size.
ROWS = {
    "smoke": [
        *_matrix(dict(clusters=3, workstations_per_cluster=2,
                      warmup=60.0, duration=600.0),
                 (1, 3), ("clean", "server-crash", "lossy-backbone"), (2, 1),
                 coded_clusters=3),
        Row("metropolis", "campus-200", "campus-200",
            dict(warmup=60.0, duration=300.0),
            pins=dict(virtual_actions=1627, virtual_failures=0,
                      virtual_hit_ratio=0.277515,
                      virtual_backbone_bytes=2742555)),
        Row("metropolis", "metro-1000", "metro-1000",
            dict(warmup=30.0, duration=120.0),
            pins=dict(virtual_actions=3545, virtual_failures=0,
                      virtual_hit_ratio=0.146234,
                      virtual_backbone_bytes=8545967)),
        SOAK,
    ],
    "full": [
        *_matrix(dict(clusters=3, workstations_per_cluster=4,
                      warmup=300.0, duration=1800.0),
                 (1, 2, 3), ("clean", "server-crash", "lossy-backbone", "partition"),
                 (4, 2), coded_clusters=7),
        Row("metropolis", "campus-200", "campus-200",
            dict(warmup=120.0, duration=600.0)),
        Row("metropolis", "metro-1000", "metro-1000",
            dict(warmup=60.0, duration=300.0)),
        Row("metropolis", "metro-5000", "metro-5000", {}),
        SOAK,
    ],
}

# The smoke set's budgets, per group: a target is a row of the group or
# the group itself (its rows' CPU and wall seconds summed, their peak RSS
# the largest).  CPU budgets are 2.5x a reading on a 2-vCPU Xeon VM under
# Python 3.11 (campus-200 0.67 s, metro-1000 2.51 s, the matrix 0.58 s),
# so a 2x slowdown fails while ordinary noise does not; five runs on a
# quiet 2-vCPU host read 0.82-1.11, 3.07-3.27 and 0.66-0.85 s (up to
# 1.56, 5.18 and 1.22 s while the host was busy).  RSS budgets are a
# reading + 25 %, so the next accumulation of per-server or stripe state
# fails: metro-1000 63.3-63.4 MiB since the third memory census (69.3 after
# the second, 78.6-78.7 before it; docs/performance.md) and the matrix
# 27.2 MiB (27.6-27.7).
# The soak day took ~25 s on one Xeon core (14.6-17.9 s in those runs);
# 180 s leaves room for slow CI runners.
BUDGETS = {
    "redundancy": {"redundancy": {"cpu_seconds": 1.45, "peak_rss_mib": 34.1}},
    "metropolis": {"campus-200": {"cpu_seconds": 1.7},
                   "metro-1000": {"cpu_seconds": 6.3, "peak_rss_mib": 79.1}},
    "soak": {"soak": {"wall_seconds": 180.0}},
}


def _day(row, scenario, out):
    """Run ``scenario`` as ``python -m repro day`` with the row's flags
    and its record under ``out`` (a scratch directory if empty; the
    record keeps the plan, so that ``command.json`` replays); the exit
    status, the day's summary and its window count."""
    from repro.__main__ import main as repro_main

    config = scenario.config
    with tempfile.TemporaryDirectory() as scratch:
        out = out or scratch
        plan = os.path.join(scratch, "plan-file.json")
        with open(plan, "w") as handle:
            json.dump(config.fault_plan.to_dict(), handle)
        argv = ["day", "--scenario", row.scenario, "--mode", config.mode,
                "--clusters", str(config.clusters),
                "--workstations", str(config.workstations_per_cluster),
                "--warmup", f"{scenario.warmup:g}",
                "--duration", f"{scenario.duration:g}",
                "--plan-file", plan, *row.day_flags, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            status = repro_main(argv)
        with open(os.path.join(out, "summary.json")) as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "windows.jsonl")) as handle:
            windows = sum(1 for _line in handle)
    return status, summary, windows


def _rounded(stats):
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in stats.items()}


def _storage(campus):
    """(bytes in one copy of everything, bytes across all copies).

    Replicated copies store whole bodies (``used_bytes``); coded stripe
    members store fragments (``fragment_bytes``) while the logical size
    lives in ``logical_bytes``, so the overhead is ≈N for factor N and
    ≈(k+m)/k for a k+m stripe.
    """
    total = primary = 0
    for server in campus.servers:
        for volume in server.volumes.values():
            total += volume.used_bytes + volume.fragment_bytes
            if volume.replica_role != "secondary":
                primary += volume.used_bytes + volume.logical_bytes
    return primary, total


def _campus_fields(campus):
    """What the day's redundancy and plan did, read off the campus."""
    config = campus.config
    venus = [ws.venus for ws in campus.workstations]
    planes = [s.replication for s in campus.servers if s.replication is not None]
    lost = sum(v.lost_writes for v in venus)
    divergent = sum(plane.divergent_discarded for plane in planes)
    primary, total = _storage(campus)
    erasure = config.erasure
    fields = {
        "factor": (f"{erasure.data}+{erasure.parity}" if erasure else
                   config.replication.factor if config.replication else 1),
        "lost_writes": {"flushes_dropped": lost, "divergent_discarded": divergent,
                        "total": lost + divergent},
        "storage": {"primary_bytes": primary, "total_bytes": total,
                    "overhead": round(total / primary, 3) if primary else 0.0},
        "venus_failovers": sum(v.failovers for v in venus),
        "degraded_reads": sum(v.degraded_reads for v in venus),
        "writes": {"stores": sum(v.stores for v in venus),
                   "deferred_flushes": sum(v.deferred_flushes for v in venus),
                   "dirty_remaining": sum(entry.dirty for v in venus
                                          for entry in v.cache)},
        "retransmissions": sum(v.node.retransmissions for v in venus),
        "corrupt_rejected": (sum(v.node.corrupt_rejected for v in venus)
                             + sum(s.node.corrupt_rejected for s in campus.servers)),
    }
    if campus.fault_scheduler is not None:
        fields["injections"] = {k: v for k, v in
                                campus.fault_scheduler.stats.items() if v}
        fields["timeline"] = campus.availability.timeline()
    controller = campus.replication_controller
    if controller is not None:
        fields["controller"] = {name: getattr(controller, name) for name in (
            "heartbeats", "deaths_declared", "promotions", "rereplications",
            "rejoins", *(("rebuilds", "rebuild_failures") if erasure else ()))}
    if erasure:
        fields.update(
            erasure=[erasure.data, erasure.parity],
            rebuild={"bytes": sum(plane.rebuild_bytes for plane in planes),
                     "stripe_repairs": sum(plane.stripe_repairs for plane in planes)},
            stripe_health=round(stripe_health(campus), 6))
    return fields


def run_row(row, out=""):
    """Build and run one row's day; its flat record.  A ``day`` row
    writes its record under ``out``."""
    scenario = SCENARIOS[row.scenario]().with_(**row.changes)
    config = scenario.config
    record = {"group": row.group, "row": row.name, "scenario": row.scenario,
              "clusters": config.clusters,
              "workstations": config.total_workstations,
              "warmup": scenario.warmup, "duration": scenario.duration}
    cpu, start = time.process_time(), time.perf_counter()
    if row.day_flags:
        record["exit_status"], summary, record["windows"] = _day(row, scenario, out)
    else:
        campus, users = scenario.build()
        setup = time.perf_counter() - start
        events = campus.sim._sequence
        summary = run_campus_day(campus, users, duration=scenario.duration,
                                 warmup=scenario.warmup)
        run = time.perf_counter() - start - setup
        events = campus.sim._sequence - events
        record.update(_campus_fields(campus),
                      setup_wall_seconds=round(setup, 3),
                      run_wall_seconds=round(run, 3), events_scheduled=events,
                      events_per_second=round(events / run) if run else 0,
                      queue=campus.sim.scheduler_stats)
    record.update(
        wall_seconds=round(time.perf_counter() - start, 3),
        cpu_seconds=round(time.process_time() - cpu, 3),
        peak_rss_mib=round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        virtual_actions=summary["actions"],
        virtual_failures=summary["failures"],
        virtual_hit_ratio=round(summary["hit_ratio"], 6),
        virtual_busiest_cpu=round(summary["busiest_cpu"], 6),
        virtual_backbone_bytes=summary["cross_cluster_bytes"])
    availability = summary.get("availability")
    if availability is not None:
        record.update(
            plan=config.fault_plan.to_dict(),
            availability=round(availability["availability"], 6),
            attempts=availability["attempts"], failures=availability["failures"],
            outages=availability["outages"], mttr=_rounded(availability["mttr"]),
            ttfs=_rounded(availability["ttfs"]),
            faults_injected=availability["events"]["faults_injected"])
    if "violations" in summary:
        record["violations"] = summary["violations"]
    return record


def _matrix_checks(records):
    """The redundancy group's acceptance checks, as (passed, line) pairs."""
    cells = {(r["factor"], r["plan"]["name"]): r for r in records
             if r["group"] == "redundancy"}
    checks = []
    for (factor, plan), cell in cells.items():
        if plan != "clean":
            continue
        checks.append((not cell["failures"] and not cell["outages"],
                       f"matrix {factor} clean: {cell['failures']} failures, "
                       f"{cell['outages']} outages"))
        if "erasure" in cell:
            k, m = cell["erasure"]
            expected, tolerance = (k + m) / k, 0.1
        else:
            expected, tolerance = factor, 0.15
        if expected > 1:
            overhead = cell["storage"]["overhead"]
            checks.append((abs(overhead - expected) <= tolerance * expected,
                           f"matrix {factor} storage overhead {overhead:.2f}x, "
                           f"≈{expected:.2f}x expected"))
    crash = {factor: cell for (factor, plan), cell in cells.items()
             if plan == "server-crash"}
    best = max((f for f in crash if isinstance(f, int)), default=1)
    if best > 1 and 1 in crash:
        checks.append((crash[best]["availability"] >= crash[1]["availability"],
                       f"matrix server-crash: factor {best} availability "
                       f"{crash[best]['availability']:.4f} >= factor 1 "
                       f"{crash[1]['availability']:.4f}"))
    for factor, cell in crash.items():
        if "erasure" not in cell:
            continue
        # The coded column's promise: degrade-read through a dead server
        # with zero lost writes, and end the day with the stripe healed.
        checks.append((cell["lost_writes"]["total"] == 0
                       and cell["degraded_reads"] > 0
                       and cell["stripe_health"] >= 1.0,
                       f"matrix {factor} server-crash: "
                       f"{cell['lost_writes']['total']} lost writes, "
                       f"{cell['degraded_reads']} degraded reads, stripe health "
                       f"{cell['stripe_health']:.2f}"))
        if 2 in crash:
            checks.append((cell["availability"] >= crash[2]["availability"],
                           f"matrix server-crash: {factor} availability "
                           f"{cell['availability']:.4f} >= factor 2 "
                           f"{crash[2]['availability']:.4f}"))
    return checks


def gate(rows, records, budgets):
    """Check every pin, every ``day`` row's exit status, the matrix and
    ``budgets``, one line each; the exit status."""
    checks = []
    for row, record in zip(rows, records):
        for key, pinned in row.pins.items():
            checks.append((record[key] == pinned,
                           f"pin {row.name} {key} = {record[key]}, pinned {pinned}"))
        if row.day_flags:
            checks.append((record["exit_status"] == 0,
                           f"day {row.name}: exit {record['exit_status']}, "
                           f"{len(record['violations'])} invariant violations"))
    checks += _matrix_checks(records)
    totals = group_totals(records)
    for group, table in budgets.items():
        readings = {r["row"]: r for r in records if r["group"] == group}
        readings[group] = totals[group]
        for target, bounds in table.items():
            for field, bound in bounds.items():
                reading = readings[target][field]
                checks.append((reading <= bound, f"budget {target} {field} "
                               f"{reading:.2f} of {bound:.2f} allowed"))
    for passed, line in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {line}")
    return 0 if all(passed for passed, _line in checks) else 1


def group_totals(records):
    """Per group: its rows' CPU and wall seconds summed, and its peak RSS."""
    totals = {}
    for r in records:
        total = totals.setdefault(r["group"], dict.fromkeys(
            ("cpu_seconds", "wall_seconds", "peak_rss_mib"), 0.0))
        total["cpu_seconds"] = round(total["cpu_seconds"] + r["cpu_seconds"], 3)
        total["wall_seconds"] = round(total["wall_seconds"] + r["wall_seconds"], 3)
        total["peak_rss_mib"] = max(total["peak_rss_mib"], r["peak_rss_mib"])
    return totals


def print_report(records):
    """The redundancy matrix, the metropolis scale table and the soak."""
    cells = [r for r in records if r["group"] == "redundancy"]
    if cells:
        first = cells[0]
        print(f"redundancy matrix: {first['clusters']} clusters x "
              f"{first['workstations'] // first['clusters']} workstations, "
              f"{first['duration']:.0f}s measured")
        print(f"  {'factor':>6s} {'plan':21s} {'avail':>7s} {'fail':>5s} "
              f"{'MTTR p50':>9s} {'MTTR p90':>9s} {'failovers':>9s} "
              f"{'rexmit':>6s} {'dirty':>5s} {'lost':>5s} {'storage':>8s} "
              f"{'wall s':>7s}")
    for r in cells:
        print(f"  {r['factor']!s:>6s} {r['plan']['name']:21s} {r['availability']:7.2%} "
              f"{r['failures']:>5d} {r['mttr']['p50']:>8.1f}s "
              f"{r['mttr']['p90']:>8.1f}s "
              f"{r.get('controller', {}).get('promotions', 0):>9d} "
              f"{r['retransmissions']:>6d} {r['writes']['dirty_remaining']:>5d} "
              f"{r['lost_writes']['total']:>5d} {r['storage']['overhead']:>7.2f}x "
              f"{r['wall_seconds']:>7.2f}")
    for r in cells:
        if "erasure" in r:
            print(f"  {r['factor']:>6s} {r['plan']['name']:21s} degraded reads "
                  f"{r['degraded_reads']}, rebuild {r['rebuild']['bytes']} B in "
                  f"{r['rebuild']['stripe_repairs']} repairs, stripe health "
                  f"{r['stripe_health']:.2f}")
    scales = [r for r in records if r["group"] == "metropolis"]
    if scales:
        print("metropolis sweep")
        print(f"  {'scale':<12} {'ws':>6} {'setup s':>8} {'run s':>8} "
              f"{'cpu s':>7} {'rss MiB':>8} {'events':>9} {'events/s':>9} "
              f"{'actions':>8}")
    for r in scales:
        print(f"  {r['row']:<12} {r['workstations']:>6} "
              f"{r['setup_wall_seconds']:>8.2f} {r['run_wall_seconds']:>8.2f} "
              f"{r['cpu_seconds']:>7.2f} {r['peak_rss_mib']:>8.1f} "
              f"{r['events_scheduled']:>9d} {r['events_per_second']:>9,} "
              f"{r['virtual_actions']:>8d}")
    for r in records:
        if r["group"] == "soak":
            print(f"soak: {r['workstations']} workstations, "
                  f"{r['duration'] / 3600:.1f} virtual hours under chaos: "
                  f"{r['virtual_actions']} actions, availability "
                  f"{r['availability']:.6f} ({r['faults_injected']} faults), "
                  f"{r['windows']} windows, {len(r['violations'])} violations, "
                  f"{r['wall_seconds']:.2f} wall s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the gated set under its budgets (CI)")
    parser.add_argument("--out", metavar="DIR", default="",
                        help="write report.json and the soak day's record "
                             "and plan under DIR")
    args = parser.parse_args()

    rows = ROWS["smoke" if args.smoke else "full"]
    records = [run_row(row, args.out) for row in rows]
    print_report(records)
    if args.out:
        path = os.path.join(args.out, "report.json")
        with open(path, "w") as handle:
            json.dump({"rows": records, "groups": group_totals(records)},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return gate(rows, records, BUDGETS if args.smoke else {})


if __name__ == "__main__":
    raise SystemExit(main())
