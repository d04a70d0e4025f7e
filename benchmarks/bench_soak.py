"""Soak benchmark: the ISSUE-7 acceptance gate, wall-clocked.

Runs the continuous soak driver (:mod:`repro.soak`) at campus scale —
4 clusters x 50 workstations, six virtual hours of diurnally-paced load
with chaos-mode fault injection on — checking every soak invariant each
600-second window, then runs the *negative* control: a deliberately
sabotaged invariant on a small shape must be caught.  The bench fails
(exit 1) if any invariant is violated on the healthy run, if the sabotage
goes undetected, or if the wall budget is blown; ``--smoke`` also fails
if the healthy run's virtual outcome differs from ``SMOKE_PINS``.

Reported quantities:

* ``soak_wall_seconds`` / ``events_per_second`` — the throughput numbers;
* ``snapshot_overhead_us`` — mean/p99 wall cost of one rolling-metrics
  window (observability overhead as a tracked number);
* ``ops_events_emitted`` / ``windows`` / ``violations`` — stream volume
  and the gate verdict;
* ``negative_test_caught`` — True when the sabotaged run was flagged.

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py           # full soak
    PYTHONPATH=src python benchmarks/bench_soak.py --smoke   # CI budget
    PYTHONPATH=src python benchmarks/bench_soak.py --json F  # write JSON
"""

import argparse
import json
import os
import sys

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.soak import SoakConfig, run_soak

__all__ = ["run_soak_benchmark", "SOAK_SHAPE", "SMOKE_SHAPE", "TRACKED_SHAPE"]

# The acceptance shape: 200 workstations, six virtual hours, chaos on.
SOAK_SHAPE = dict(
    clusters=4, workstations_per_cluster=50,
    hours=6.0, window=600.0, warmup=900.0,
    chaos_mean_interval=900.0, chaos_mean_outage=60.0,
)

# --smoke runs the SAME shape — the acceptance criterion is explicitly
# "six virtual hours at 200 workstations inside the wall budget" — it only
# trims the negative-control shape, which is already tiny.
SMOKE_SHAPE = dict(SOAK_SHAPE)

# The shape run_all.py tracks per commit: same code paths, a fraction of
# the virtual time, so the harness records soak events/s and snapshot
# overhead without paying the full six-hour acceptance run every time.
TRACKED_SHAPE = dict(
    clusters=2, workstations_per_cluster=10,
    hours=2.0, window=600.0, warmup=600.0,
    chaos_mean_interval=900.0, chaos_mean_outage=60.0,
)

# The sabotaged control: small and fast, the violation fires in window 1.
NEGATIVE_SHAPE = dict(
    clusters=1, workstations_per_cluster=3,
    hours=0.25, window=300.0, warmup=120.0,
)

# The healthy soak takes ~28 s on the reference container; 180 s leaves
# >6x headroom for slow shared CI runners while still catching a kernel
# or fast-path regression that multiplies the event cost.
SMOKE_BUDGET_SECONDS = 180.0

# The smoke shape's virtual outcome; a change meant to move it re-records
# these and says why.  Kernel ``events`` (1,045,997) is reported but not
# pinned: it counts the window clock's own wake-ups, and host work that
# cuts events moves it without moving anything a user sees.
SMOKE_PINS = {
    "virtual_actions": 100943,
    "virtual_availability": 0.999634,
    "faults_injected": 34,
    "windows": 36,
}


def run_soak_benchmark(shape=None, metrics_path=None, events_path=None) -> dict:
    """The healthy soak plus the sabotaged negative control."""
    shape = dict(SOAK_SHAPE if shape is None else shape)
    quiet = lambda _line: None

    report = run_soak(SoakConfig(metrics_path=metrics_path,
                                 events_path=events_path, **shape))

    negative = run_soak(SoakConfig(break_invariant=True, **NEGATIVE_SHAPE),
                        echo=quiet)

    return {
        "shape": report["shape"],
        "soak_wall_seconds": report["run_wall_seconds"],
        "events": report["events"],
        "events_per_second": report["events_per_second"],
        "windows": report["windows"],
        "invariant_checks": report["invariant_checks"],
        "violations": report["violations"],
        "snapshot_overhead_us": report["snapshot_overhead_us"],
        "ops_events_emitted": report["ops_events_emitted"],
        "virtual_actions": report["virtual_actions"],
        "virtual_availability": round(
            report["availability"]["availability"], 6),
        "faults_injected": report["availability"]["events"]["faults_injected"],
        "negative_test_caught": bool(negative["violations"]),
    }


def _print_report(report: dict) -> None:
    shape = report["shape"]
    print(f"soak: {shape['workstations']} workstations, "
          f"{shape['virtual_hours']:.1f} virtual hours, "
          f"chaos every ~{shape['chaos_mean_interval']:.0f}s")
    print(f"  wall            {report['soak_wall_seconds']:8.2f} s")
    print(f"  events          {report['events']:>10d}  "
          f"({report['events_per_second']:,} events/s)")
    print(f"  windows         {report['windows']:>10d}  "
          f"({report['invariant_checks']} invariant checks)")
    print(f"  snapshot cost   {report['snapshot_overhead_us']['mean']:8.0f} us mean, "
          f"{report['snapshot_overhead_us']['p99']:.0f} us p99")
    print(f"  ops events      {report['ops_events_emitted']:>10d}")
    print(f"  availability    {report['virtual_availability']:10.4f}  "
          f"({report['faults_injected']} faults injected)")
    print(f"  violations      {len(report['violations']):>10d}")
    print(f"  negative test   {'caught' if report['negative_test_caught'] else 'MISSED'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="acceptance shape under a hard wall budget (CI)")
    parser.add_argument("--json", metavar="FILE", default="",
                        help="also write the report as JSON")
    parser.add_argument("--metrics", metavar="FILE", default="",
                        help="stream rolling windows to this JSONL file")
    parser.add_argument("--events", metavar="FILE", default="",
                        help="stream ops events to this JSONL file")
    args = parser.parse_args()

    report = run_soak_benchmark(SMOKE_SHAPE if args.smoke else None,
                                metrics_path=args.metrics or None,
                                events_path=args.events or None)
    _print_report(report)

    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    failed = bool(report["violations"]) or not report["negative_test_caught"]
    if failed:
        print("soak gate: FAILED (violations on the healthy run, or the "
              "sabotaged run went undetected)")
        return 1
    if args.smoke:
        moved = {key: (report[key], pinned) for key, pinned in SMOKE_PINS.items()
                 if report[key] != pinned}
        for key, (got, pinned) in sorted(moved.items()):
            print(f"smoke pin: {key} = {got}, pinned {pinned}  MOVED")
        if moved:
            return 1
        print(f"smoke pins: {', '.join(sorted(SMOKE_PINS))} as pinned  ok")
        verdict = "ok" if report["soak_wall_seconds"] <= SMOKE_BUDGET_SECONDS else "TOO SLOW"
        print(f"smoke budget: {report['soak_wall_seconds']:.2f} s of "
              f"{SMOKE_BUDGET_SECONDS:.1f} s allowed  {verdict}")
        if verdict != "ok":
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
