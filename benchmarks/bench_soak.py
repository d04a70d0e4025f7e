"""Soak benchmark: the continuous soak as a ``day`` recipe, wall-clocked.

Runs ``python -m repro day`` at campus scale — 4 clusters x 50 revised
workstations, six virtual hours of diurnally paced load after a 900 s
warm-up, under a chaos plan whose arrivals start at the end of the
warm-up — with ``--invariants`` checking every soak invariant each
600-second window, then runs the *negative* control: the same recipe on a
small shape, with ``repro.soak``'s pending bounds zeroed, must exit 1.  The
bench fails (exit 1) if the healthy day exits non-zero (a violated
invariant), if the sabotage goes undetected, or if the wall budget is
blown; ``--smoke`` also fails if the healthy day's virtual outcome
differs from ``SMOKE_PINS``.

``--out DIR`` keeps the healthy day's record (``day --out``): its
summary, windows, ops log, timeline and metrics.

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py              # full soak
    PYTHONPATH=src python benchmarks/bench_soak.py --smoke      # CI budget
    PYTHONPATH=src python benchmarks/bench_soak.py --out DIR    # keep the record
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from unittest import mock

if __package__ is None or __package__ == "":  # running as a script
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import repro.soak
from repro.__main__ import main as repro_main
from repro.faults.plan import ChaosConfig, FaultPlan

__all__ = ["SOAK_DAY", "NEGATIVE_DAY", "SOAK_CHAOS", "run_soak_benchmark"]

WARMUP = 900.0

# The acceptance recipe: 200 workstations, six measured virtual hours.
SOAK_DAY = ["day", "--mode", "revised", "--clusters", "4", "--workstations", "50",
            "--duration", "21600", "--warmup", f"{WARMUP:g}", "--seed", "0",
            "--diurnal", "--window", "600", "--invariants"]

# Chaos arrivals start after the warm-up, so the baseline is clean.
SOAK_CHAOS = FaultPlan(name="soak-chaos", seed=0, chaos=ChaosConfig(
    start=WARMUP, mean_interval=900.0, mean_outage=60.0))

# The sabotaged control: small and fast, run with the pending bound zeroed
# (``run_soak_benchmark``), so the violation fires in window 1.
NEGATIVE_DAY = ["day", "--mode", "revised", "--clusters", "1", "--workstations", "3",
                "--duration", "900", "--warmup", "120", "--window", "300",
                "--invariants"]

# The healthy day takes ~25 s on one Intel Xeon core; 180 s leaves
# headroom for slow shared CI runners while still catching a kernel or
# fast-path regression that multiplies the event cost.
SMOKE_BUDGET_SECONDS = 180.0

# The smoke recipe's virtual outcome; a change meant to move it re-records
# these and says why.  Recorded when the soak became a ``day`` recipe: the
# day's campus has 200-file caches and full provisioning (the soak driver
# built 120-file caches over a small one), and users run to their last
# action instead of stopping at the deadline.  Re-recorded when
# provisioning began releasing /unix read-only to every server: binary
# reads stay in their cluster and survive server0's outages, so
# availability rose from 0.999595 (101,166 actions).  Re-recorded when
# Venus began remembering silent servers (reads skip a server that just
# failed to answer, until a probe finds it back): one more action
# (101,202 before), availability unchanged.
SMOKE_PINS = {
    "virtual_actions": 101203,
    "virtual_availability": 0.999694,
    "faults_injected": 33,
    "windows": 36,
}


def run_soak_benchmark(plan_path, out_dir) -> dict:
    """The healthy soak day plus the sabotaged negative control; the day
    reads its chaos plan from ``plan_path`` and writes its record under
    ``out_dir``."""
    with open(plan_path, "w") as handle:
        json.dump(SOAK_CHAOS.to_dict(), handle)
    argv = SOAK_DAY + ["--plan-file", plan_path, "--out", out_dir]

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main(argv)
    wall = time.perf_counter() - start
    with contextlib.redirect_stdout(io.StringIO()), mock.patch.multiple(
            repro.soak, PENDING_PER_WORKSTATION=0, PENDING_SLACK=0):
        negative_status = repro_main(NEGATIVE_DAY)

    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)
    with open(os.path.join(out_dir, "windows.jsonl")) as handle:
        windows = sum(1 for _line in handle)
    availability = summary["availability"]
    return {
        "day_exit_status": status,
        "soak_wall_seconds": round(wall, 3),
        "windows": windows,
        "violations": summary["violations"],
        "virtual_actions": summary["actions"],
        "virtual_availability": round(availability["availability"], 6),
        "faults_injected": availability["events"]["faults_injected"],
        "negative_test_caught": negative_status == 1,
    }


def _print_report(report: dict) -> None:
    print("soak: 200 workstations, 6.0 virtual hours, chaos every ~900s")
    print(f"  wall            {report['soak_wall_seconds']:8.2f} s")
    print(f"  windows         {report['windows']:>10d}")
    print(f"  actions         {report['virtual_actions']:>10d}")
    print(f"  availability    {report['virtual_availability']:10.6f}  "
          f"({report['faults_injected']} faults injected)")
    print(f"  violations      {len(report['violations']):>10d}")
    print(f"  negative test   {'caught' if report['negative_test_caught'] else 'MISSED'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="check the pins and the wall budget (CI)")
    parser.add_argument("--out", metavar="DIR", default="",
                        help="keep the healthy day's record under DIR")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as directory:
        report = run_soak_benchmark(os.path.join(directory, "soak-chaos.json"),
                                    args.out or os.path.join(directory, "record"))
    _print_report(report)

    if report["day_exit_status"] != 0 or not report["negative_test_caught"]:
        print("soak gate: FAILED (the healthy day exited non-zero, or the "
              "sabotaged day went undetected)")
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
