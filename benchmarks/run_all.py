"""Tracked wall-clock benchmark harness.

Runs the wall-clock-relevant experiments (EXP-4 Andrew, EXP-5 scalability,
EXP-11 encryption) plus the kernel/crypto microbenchmarks, and records both

* **wall seconds** — how long the simulation itself takes to execute, the
  quantity the fast paths in ``repro.sim`` and ``repro.crypto`` exist to
  shrink; and
* **virtual seconds** — the simulated results, which must NOT move when
  only wall-clock work is optimised.

``--json`` writes ``benchmarks/results/BENCH_<date>.json`` so successive
commits can be compared (see docs/performance.md).

Usage::

    PYTHONPATH=src python benchmarks/run_all.py          # print summary
    PYTHONPATH=src python benchmarks/run_all.py --json   # also write BENCH_<date>.json
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

if __package__ is None or __package__ == "":  # running as a script
    _HERE = os.path.dirname(os.path.abspath(__file__))
    _SRC = os.path.join(os.path.dirname(_HERE), "src")
    for _path in (_SRC, _HERE):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from repro.rpc.costs import EncryptionMode
from repro.sim.metrics import Samples

from _common import RESULTS_DIR, run_andrew
from bench_availability import SMOKE_SHAPE as AVAIL_SMOKE_SHAPE
from bench_availability import run_availability_benchmark
from bench_campus import run_campus_benchmark
from bench_encryption import run_mode
from bench_kernel import run_microbenchmarks
from bench_metropolis import SMOKE_SCALES, run_metropolis_benchmark
from bench_redundancy import SMOKE_FACTORS, SMOKE_PLANS
from bench_redundancy import SMOKE_SHAPE as REDUNDANCY_SMOKE_SHAPE
from bench_redundancy import ERASURE_SMOKE_SCHEME, run_redundancy_benchmark
from bench_scalability import run_concurrent
from bench_soak import TRACKED_SHAPE as SOAK_TRACKED_SHAPE
from bench_soak import run_soak_benchmark

# Paper-facing operation categories (§5.2 Table) -> RPC procedures, both
# protocol families.  Latency comes from the rpc.<host>.latency.<proc>
# histograms the metrics registry keeps on every client node.
OP_CATEGORIES = {
    "Fetch": ("Fetch", "FetchByFid", "FetchDir"),
    "Store": ("Store", "StoreByFid", "CreateByFid"),
    "TestAuth": ("ValidateCache", "ValidateByFid"),
    "GetFileStat": ("GetStatus", "GetStatusByFid"),
}


def _timed(func):
    start = time.perf_counter()
    value = func()
    return value, time.perf_counter() - start


def bench_exp4() -> dict:
    """EXP-4: the three Andrew benchmark variants."""
    variants = {}
    for label, kwargs in (
        ("local", {"mode": "prototype", "remote": False}),
        ("proto_remote", {"mode": "prototype", "remote": True}),
        ("revised_remote", {"mode": "revised", "remote": True}),
    ):
        (_campus, result), wall = _timed(lambda kw=kwargs: run_andrew(**kw))
        variants[label] = {
            "wall_seconds": round(wall, 3),
            "virtual_total_seconds": round(result.total_seconds, 3),
        }
    return variants


def bench_exp5() -> dict:
    """EXP-5: concurrent clients against one prototype server."""
    sweep = {}
    for clients in (1, 2, 4, 8):
        row, wall = _timed(lambda n=clients: run_concurrent(n))
        sweep[str(clients)] = {
            "wall_seconds": round(wall, 3),
            "virtual_mean_seconds": round(row["mean_seconds"], 3),
            "server_cpu": round(row["server_cpu"], 4),
        }
    return sweep


def bench_exp11() -> dict:
    """EXP-11: cold fetches under each encryption mode."""
    modes = {}
    for mode in (EncryptionMode.NONE, EncryptionMode.HARDWARE, EncryptionMode.SOFTWARE):
        timings, wall = _timed(lambda m=mode: run_mode(m))
        modes[mode] = {
            "wall_seconds": round(wall, 3),
            "virtual_seconds_by_size": {str(k): round(v, 4) for k, v in timings.items()},
        }
    return modes


def op_latency_from(campus) -> dict:
    """Virtual-time latency percentiles per paper op category."""
    by_proc = {}
    for name, bag in campus.metrics.histograms("rpc.").items():
        if ".latency." in name:
            by_proc.setdefault(name.rsplit(".", 1)[1], []).append(bag)
    categories = {}
    for category, procedures in OP_CATEGORIES.items():
        merged = Samples(category)
        for procedure in procedures:
            for bag in by_proc.get(procedure, []):
                for value in bag.values:
                    merged.add(value)
        if not len(merged):
            continue
        categories[category] = {
            "count": len(merged),
            "mean_seconds": round(merged.mean, 6),
            "p50_seconds": round(merged.percentile(0.50), 6),
            "p90_seconds": round(merged.percentile(0.90), 6),
            "p99_seconds": round(merged.percentile(0.99), 6),
        }
    return categories


def bench_op_latency() -> dict:
    """Op-level latency from a revised-remote Andrew run."""
    campus, _result = run_andrew(mode="revised", remote=True)
    return op_latency_from(campus)


def collect() -> dict:
    """Run everything; returns the full report structure."""
    report = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "experiments": {},
    }
    print("EXP-4 (Andrew benchmark)...")
    report["experiments"]["EXP-4"] = bench_exp4()
    print("EXP-5 (scalability sweep)...")
    report["experiments"]["EXP-5"] = bench_exp5()
    print("EXP-11 (encryption modes)...")
    report["experiments"]["EXP-11"] = bench_exp11()
    print("campus scale (4 clusters, 200 workstations)...")
    report["campus"] = run_campus_benchmark()
    # The fixed comparison point for the campus fast-path work: the same
    # shape measured on the reference container at commit 5870225, before
    # the protection/routing/dispatch caches (docs/performance.md).
    report["campus"]["reference_baseline"] = {
        "commit": "5870225",
        "setup_wall_seconds": 1.07,
        "run_wall_seconds": 4.11,
        "events_per_second": 67458,
    }
    print("metropolis sweep (200 + 1,000 workstations, smoke scales)...")
    # The scale trajectory of the event kernel: events/s at each campus
    # size.  The tracked harness runs the smoke scales (the
    # 5,000-workstation scale is a local/manual bench_metropolis run).
    report["metropolis"] = run_metropolis_benchmark(SMOKE_SCALES)
    print("availability under fault plans...")
    # The smoke shape: the full availability table is its own bench; the
    # tracked harness records the CI-budget variant so runs stay cheap.
    report["availability"] = run_availability_benchmark(
        AVAIL_SMOKE_SHAPE, full=False
    )
    print("redundancy matrix (replication factor x fault plan)...")
    # Corner cells only: the full matrix is bench_redundancy's own run;
    # the tracked harness records the CI-budget variant.
    # The coded rows ride along: same smoke shape, 2+1 stripe, so the
    # tracked JSON records replication vs coding side by side.
    report["redundancy"] = run_redundancy_benchmark(
        REDUNDANCY_SMOKE_SHAPE, SMOKE_FACTORS, SMOKE_PLANS,
        erasure=ERASURE_SMOKE_SCHEME
    )
    print("soak (invariant-checked chaos run, tracked shape)...")
    # The continuous-soak gate at the tracked shape: records soak events/s
    # and per-window snapshot overhead; the six-hour acceptance shape is
    # bench_soak --smoke (make soak-smoke).
    report["soak"] = run_soak_benchmark(SOAK_TRACKED_SHAPE)
    print("op latency (revised remote Andrew)...")
    report["op_latency"] = bench_op_latency()
    print("microbenchmarks...")
    report["microbenchmarks"] = {
        name: round(seconds, 4) for name, seconds in run_microbenchmarks().items()
    }
    return report


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except OSError:  # pragma: no cover - git always present in the repo
        return "unknown"


def summarize(report: dict) -> str:
    lines = [f"benchmark run {report['date']} (python {report['python']}, "
             f"commit {report['commit']})", ""]
    for exp, entries in report["experiments"].items():
        total_wall = sum(entry["wall_seconds"] for entry in entries.values())
        lines.append(f"{exp}: {total_wall:.2f} wall seconds total")
        for label, entry in entries.items():
            virtual = (
                entry.get("virtual_total_seconds")
                or entry.get("virtual_mean_seconds")
                or entry.get("virtual_seconds_by_size")
            )
            lines.append(f"  {label:16s} wall {entry['wall_seconds']:7.3f} s"
                         f"   virtual {virtual}")
    if report.get("campus"):
        campus = report["campus"]
        shape = campus["shape"]
        lines.append(
            f"campus scale ({shape['workstations']} workstations, "
            f"{shape['groups']} groups): setup {campus['setup_wall_seconds']:.2f} s,"
            f" run {campus['run_wall_seconds']:.2f} s"
            f" ({campus['events_per_second']:,} events/s)"
        )
    if report.get("metropolis"):
        lines.append("metropolis sweep:")
        for scale in report["metropolis"]["scales"]:
            lines.append(
                f"  {scale['name']:12s} {scale['workstations']:>5d} ws"
                f"  run {scale['run_wall_seconds']:7.2f} s"
                f"  {scale['events_per_second']:>8,} events/s"
            )
    if report.get("availability"):
        lines.append("availability under fault plans (smoke shape):")
        for name, row in report["availability"]["plans"].items():
            mttr = row["mttr"]
            lines.append(
                f"  {name:22s} avail {row['availability']:8.2%}"
                f"  outages {row['outages']:<3d}"
                f" MTTR p50 {mttr['p50']:6.1f}s p90 {mttr['p90']:6.1f}s"
            )
    if report.get("redundancy"):
        lines.append("redundancy matrix (smoke cells):")
        for factor, rows in report["redundancy"]["factors"].items():
            for name, row in rows.items():
                promotions = row.get("controller", {}).get("promotions", 0)
                lines.append(
                    f"  factor {factor} {name:14s} avail "
                    f"{row['availability']:8.2%}  failovers {promotions:<3d}"
                    f" lost {row['lost_writes']['total']:<3d}"
                    f" storage {row['storage']['overhead']:.2f}x"
                )
        erasure = report["redundancy"].get("erasure")
        if erasure:
            for name, row in erasure["rows"].items():
                rebuild = row.get("rebuild", {})
                lines.append(
                    f"  coded {erasure['scheme']} {name:13s} avail "
                    f"{row['availability']:8.2%}  degraded "
                    f"{row.get('degraded_reads', 0):<3d}"
                    f" lost {row['lost_writes']['total']:<3d}"
                    f" storage {row['storage']['overhead']:.2f}x"
                    f" repair {rebuild.get('bytes', 0):,} B"
                )
    if report.get("soak"):
        soak = report["soak"]
        overhead = soak["snapshot_overhead_us"]
        lines.append(
            f"soak ({soak['shape']['workstations']} ws, "
            f"{soak['shape']['virtual_hours']:.1f} virtual h, chaos on): "
            f"wall {soak['soak_wall_seconds']:.2f} s"
            f"  {soak['events_per_second']:,} events/s"
            f"  snapshot {overhead['mean']:.0f} us mean"
            f"  violations {len(soak['violations'])}"
            f"  negative test {'caught' if soak['negative_test_caught'] else 'MISSED'}"
        )
    if report.get("op_latency"):
        lines.append("op latency, virtual ms (revised remote Andrew):")
        for category, stats in report["op_latency"].items():
            lines.append(
                f"  {category:12s} n={stats['count']:<5d}"
                f" p50 {stats['p50_seconds'] * 1000:7.1f}"
                f"  p90 {stats['p90_seconds'] * 1000:7.1f}"
                f"  p99 {stats['p99_seconds'] * 1000:7.1f}"
            )
    lines.append("microbenchmarks (best of 3):")
    for name, seconds in report["microbenchmarks"].items():
        lines.append(f"  {name:28s} {seconds * 1000:8.2f} ms")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write benchmarks/results/BENCH_<date>.json")
    args = parser.parse_args()

    report = collect()
    print()
    print(summarize(report))

    if args.json:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"BENCH_{report['date']}.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
