"""The cost ledger: seven workloads, end-to-end and per-layer metrics.

Three ways to call it (see README.md in this directory):

``python benchmarks/ledger/run.py [--seed N] [--repeats 3] [--out FILE]``
    The full ledger.  Every workload, ``--repeats`` untraced runs each
    (interleaved round-robin so drift hits all workloads alike), then one
    traced pass (T) and one profiled pass (P) per workload.  Prints every
    metric by name with its unit and label, checks the outputs, writes the
    JSON, exits non-zero on any violation.

``python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    The ``BENCHMARK.json`` contract: one workload, untraced repeats for
    about S seconds (never fewer than three), and as the last line of
    standard output one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the gated end-to-end metrics with
    ``--trace 0``, every other metric (one U, one T and one P run) with
    ``--trace 1``.

``python benchmarks/ledger/run.py compare A.json B.json``
    One row per (workload, end-to-end metric): both values, the delta,
    the bound and a verdict.  Exits non-zero if any row is ``worse``.

Each measurement runs in a fresh child process (``measure.py``), one at a
time, pinned to one CPU.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from catalogue import (ALL, END_TO_END, FAULT_FREE, LAYERS,  # noqa: E402
                       PER_LAYER, WORKLOADS)

_NAME = re.compile(r"[A-Za-z0-9_.-]+")
_CHILD_TIMEOUT_S = 170.0
_MIN_STRIPE_HEALTH = 0.99
_MIN_REPEATS = 3  # untraced repeats per contract-mode invocation


class LedgerError(Exception):
    """A measurement could not be taken."""


# ----------------------------------------------------------------------
# taking measurements
# ----------------------------------------------------------------------


def run_child(workload: str, seed: int, mode: str, quick: bool,
              spans_out: str = "") -> Dict[str, Any]:
    """One measurement in a fresh interpreter; returns its JSON report."""
    command = [sys.executable, os.path.join(_HERE, "measure.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    if quick:
        command.append("--quick")
    if spans_out:
        command += ["--spans-out", spans_out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=_CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise LedgerError(f"{workload} pass {mode} exited {done.returncode}:\n"
                          + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(seed: int, repeats: Optional[int], quick: bool) -> Dict[str, Any]:
    """What the numbers were taken on; warns when the host is busy."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=_HERE,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc - 1:
        print(f"warning: 1-minute load average {load:.2f} exceeds"
              f" nproc - 1 = {nproc - 1}; host metrics will be noisy",
              file=sys.stderr)
    return {"commit": commit, "python": platform.python_version(),
            "nproc": nproc, "loadavg_1m": load, "seed": seed,
            "repeats": repeats, "quick": quick}


def assemble(name: str, untraced: List[Dict], traced: Optional[Dict] = None,
             profiled: Optional[Dict] = None) -> Dict[str, Any]:
    """Fold one workload's runs into its ledger record, and check it.

    A host metric's value is its best untraced repeat, with the median,
    min, max and spread recorded beside it: what interference the CPU clock
    still sees only ever adds time, so the least-disturbed repeat is the
    steadiest estimate of what the code costs (README.md has the
    measurements).  Virtual metrics and exact counts must be identical
    across every run, the instrumented passes included.
    """
    violations: List[str] = []
    for run in untraced:
        violations += run["violations"]
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(metric: str, value: float, **extra) -> None:
        spec = ALL[metric]
        metrics[metric] = {"value": value, "unit": spec.unit,
                           "kind": spec.kind, "better": spec.better, **extra}

    every_run = untraced + [run for run in (traced, profiled) if run]
    for metric in untraced[0]["metrics"]:
        if ALL[metric].kind == "host":
            runs = [run["metrics"][metric] for run in untraced]
            median = statistics.median(runs)
            best = min(runs) if ALL[metric].better == "lower" else max(runs)
            put(metric, best, runs=runs, median=median, min=min(runs),
                max=max(runs), spread=(max(runs) - min(runs)) / median)
        else:
            seen = [run["metrics"][metric] for run in every_run]
            if any(value != seen[0] for value in seen):
                violations.append(f"{metric} differs across runs of one"
                                  f" seed: {seen}")
            put(metric, seen[0])
    for metric, sample in (("action_p50_ms", "action"),
                           ("action_p95_ms", "action"),
                           ("rpc.fetch_p50_ms", "rpc.fetch"),
                           ("rpc.fetch_p95_ms", "rpc.fetch"),
                           ("rpc.store_p50_ms", "rpc.store"),
                           ("rpc.validate_p50_ms", "rpc.validate"),
                           ("rpc.status_p50_ms", "rpc.status")):
        metrics[metric]["n"] = untraced[0]["samples"][sample]

    if traced:
        spans = traced["spans"]
        for metric, kind in (("rpc.call_self_ms", "rpc.call"),
                             ("rpc.serve_self_ms", "rpc.serve"),
                             ("storage.disk_access_ms", "disk.access"),
                             ("vice.fetch_self_ms", "vice.fetch"),
                             ("vice.store_self_ms", "vice.store"),
                             ("venus.open_self_ms", "venus.open"),
                             ("venus.close_self_ms", "venus.close")):
            entry = spans.get(kind, {"self_mean_ms": 0.0, "count": 0})
            put(metric, entry["self_mean_ms"], n=entry["count"])
        put("crypto.seal_calls", traced["crypto"]["calls"])
        put("crypto.sealed_bytes", traced["crypto"]["bytes"])
        put("obs.spans", traced["span_count"])
        put("obs.trace_overhead_x", traced["metrics"]["run_wall_s"]
            / metrics["run_wall_s"]["value"])
    if profiled:
        profile = profiled["profile"]
        for layer in LAYERS:
            bucket = profile.get(f"repro.{layer}", {"share": 0.0, "calls": 0})
            put(f"{layer}.self_share", bucket["share"])
            if f"{layer}.py_calls" in ALL:
                put(f"{layer}.py_calls", bucket["calls"])
        put("sim.py_calls_per_event",
            sum(bucket["calls"] for bucket in profile.values())
            / metrics["sim.events"]["value"])
    if traced and profiled:
        kib = traced["crypto"]["bytes"] / 1024.0
        crypto_s = profiled["profile"].get("repro.crypto", {"self_s": 0.0})
        put("crypto.host_us_per_kib",
            1e6 * crypto_s["self_s"] / kib if kib else 0.0)

    lost = metrics["lost_writes"]["value"]
    if name in FAULT_FREE and (metrics["failed_share"]["value"] or lost):
        violations.append(
            f"fault-free workload failed {untraced[0]['failed']} operations"
            f" and lost {lost} writes")
    if name == "coded-crash":
        health = metrics["vice.stripe_health"]["value"]
        if health < _MIN_STRIPE_HEALTH or lost:
            violations.append(f"coded-crash ended with stripe health"
                              f" {health:.4f} and {lost} lost writes")
    violations += [f"bad metric name {metric!r}" for metric in metrics
                   if not _NAME.fullmatch(metric)]
    if not _NAME.fullmatch(name):
        violations.append(f"bad workload name {name!r}")

    record = {
        "why": WORKLOADS[name],
        "clients": untraced[0]["clients"],
        "cpu_pin": untraced[0]["cpu_pin"],
        "attempted": untraced[0]["attempted"],
        "failed": untraced[0]["failed"],
        "wall_clock": [run["wall_clock"] for run in untraced],
        "end_to_end": {m: metrics[m] for m in END_TO_END},
        "per_layer": {m: metrics[m] for m in PER_LAYER if m in metrics},
        "violations": violations,
    }
    if traced:
        record["spans"] = traced["spans"]
    if profiled:
        record["profile"] = profiled["profile"]
    return record


# ----------------------------------------------------------------------
# the full ledger
# ----------------------------------------------------------------------


def _format(metric: str, entry: Dict[str, Any]) -> str:
    line = (f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']:10s}"
            f" {entry['kind']:8s}")
    if "spread" in entry:
        line += (f" min {entry['min']:.6g} max {entry['max']:.6g}"
                 f" spread {100 * entry['spread']:.1f}%")
    if "n" in entry:
        line += f" n={entry['n']}"
    return line


def print_record(name: str, record: Dict[str, Any]) -> None:
    print(f"\n{name}  ({record['clients']} clients, closed loop;"
          f" {record['attempted']} attempted, {record['failed']} failed)")
    print(f"  why: {record['why']}")
    for section in ("end_to_end", "per_layer"):
        print(f" {section}:")
        for metric, entry in record[section].items():
            print(_format(metric, entry))
    for violation in record["violations"]:
        print(f"  VIOLATION: {violation}")


def run_ledger(args) -> int:
    names = list(WORKLOADS)
    env = environment(args.seed, args.repeats, args.quick)
    if args.spans_dir:
        os.makedirs(args.spans_dir, exist_ok=True)
    untraced: Dict[str, List[Dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            print(f"untraced {repeat + 1}/{args.repeats}: {name}",
                  file=sys.stderr)
            untraced[name].append(run_child(name, args.seed, "U", args.quick))
    records = {}
    for name in names:
        print(f"traced and profiled: {name}", file=sys.stderr)
        spans_out = (os.path.join(args.spans_dir, f"{name}.jsonl")
                     if args.spans_dir else "")
        traced = run_child(name, args.seed, "T", args.quick, spans_out)
        profiled = run_child(name, args.seed, "P", args.quick)
        records[name] = assemble(name, untraced[name], traced, profiled)

    print(f"cost ledger: commit {env['commit']}, python {env['python']},"
          f" {env['nproc']} CPUs, load {env['loadavg_1m']:.2f},"
          f" seed {env['seed']}, {env['repeats']} repeats")
    for name, record in records.items():
        print_record(name, record)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "env": env, "workloads": records},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    return 1 if any(r["violations"] for r in records.values()) else 0


# ----------------------------------------------------------------------
# the BENCHMARK.json contract: one workload, one JSON line
# ----------------------------------------------------------------------


def run_contract(args) -> int:
    started = time.perf_counter()
    untraced = [run_child(args.workload, args.seed, "U", args.quick)]
    traced = profiled = None
    if args.trace:
        traced = run_child(args.workload, args.seed, "T", args.quick)
        profiled = run_child(args.workload, args.seed, "P", args.quick)
    else:
        # Measure for --seconds: another repeat while the next one is
        # expected to fit, and never fewer than _MIN_REPEATS, so that
        # every host metric (setup_s too) is the best of several.
        while True:
            elapsed = time.perf_counter() - started
            if (len(untraced) >= _MIN_REPEATS
                    and elapsed * (1 + 1 / len(untraced)) > args.seconds):
                break
            untraced.append(run_child(args.workload, args.seed, "U",
                                      args.quick))
    record = assemble(args.workload, untraced, traced, profiled)
    every = {**record["end_to_end"], **record["per_layer"]}
    gated = [m for m, spec in END_TO_END.items() if spec.bound is not None]
    wanted = [m for m in ALL if m not in gated] if args.trace else gated
    for violation in record["violations"]:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["violations"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": every[m]["value"], "unit": every[m]["unit"]}
                    for m in wanted},
    }))
    return 1 if record["violations"] else 0


# ----------------------------------------------------------------------
# compare two ledgers
# ----------------------------------------------------------------------


def verdict(before: Dict[str, Any], after: Dict[str, Any],
            bound: float) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for one metric.

    Exact and virtual metrics compare exactly.  A host metric is
    unresolved when either side's spread is wider than the bound and the
    two sets of runs overlap: then the values cannot tell a change from
    noise, whichever way they point.
    """
    sign = 1.0 if before["better"] == "lower" else -1.0
    worse_by = sign * (after["value"] - before["value"])
    if before["kind"] != "host":
        return "same" if worse_by == 0 else "worse" if worse_by > 0 else "better"
    worse_by /= before["value"]
    overlap = before["min"] <= after["max"] and after["min"] <= before["max"]
    if overlap and max(before["spread"], after["spread"]) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def run_compare(before_path: str, after_path: str) -> int:
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    for key in ("seed", "quick"):
        if before["env"][key] != after["env"][key]:
            print(f"cannot compare: {key} differs ({before['env'][key]} vs"
                  f" {after['env'][key]})", file=sys.stderr)
            return 2
    print(f"A = {before_path} (commit {before['env']['commit']})")
    print(f"B = {after_path} (commit {after['env']['commit']})")
    print(f"{'workload':18s} {'metric':20s} {'A':>12s} {'B':>12s}"
          f" {'delta':>8s} {'bound':>6s}  verdict")
    worse = 0
    shared = [w for w in before["workloads"] if w in after["workloads"]]
    for name in shared:
        a_record, b_record = before["workloads"][name], after["workloads"][name]
        for metric, spec in END_TO_END.items():
            a, b = a_record["end_to_end"][metric], b_record["end_to_end"][metric]
            # Virtual metrics repeat exactly for one seed, so here their
            # bound is 0 whatever BENCHMARK.json allows across seeds.
            bound = spec.bound if spec.kind == "host" else 0.0
            result = verdict(a, b, bound)
            worse += result == "worse"
            delta = ((b["value"] - a["value"]) / a["value"]
                     if a["value"] else 0.0)
            print(f"{name:18s} {metric:20s} {a['value']:12.6g}"
                  f" {b['value']:12.6g} {100 * delta:+7.2f}% {bound:6.2f}"
                  f"  {result}")
    print("\nper-layer metrics (listed, never gating):")
    for name in shared:
        a_layer = before["workloads"][name]["per_layer"]
        b_layer = after["workloads"][name]["per_layer"]
        for metric in a_layer:
            if metric in b_layer:
                a, b = a_layer[metric]["value"], b_layer[metric]["value"]
                delta = (b - a) / a if a else 0.0
                print(f"{name:18s} {metric:32s} {a:14.6g} {b:14.6g}"
                      f" {100 * delta:+7.2f}%")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Also: run.py compare A.json B.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (full ledger)")
    parser.add_argument("--out", default="", help="write the ledger JSON here")
    parser.add_argument("--spans-dir", default="",
                        help="also write pass T's raw spans, one JSONL per"
                             " workload, into this directory")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down shapes for test_ledger.py; the"
                             " numbers mean nothing")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="contract mode: measure this one workload")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="contract mode: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    try:
        return run_contract(args) if args.workload else run_ledger(args)
    except (LedgerError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
