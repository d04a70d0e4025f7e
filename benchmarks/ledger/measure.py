"""One measurement of one workload, in a process of its own.

``python measure.py --workload W --seed N --mode U|T|P [--quick]`` builds
the workload's campus, executes its simulated period once and prints one
JSON object on the last line of standard output.  ``run.py`` starts one of
these per (workload, repeat), one at a time, so every number is taken in a
fresh, single-threaded interpreter pinned to one CPU.

Modes: ``U`` untraced (the only source of end-to-end metrics), ``T`` with
a ``TraceRecorder`` attached and the public ``seal``/``unseal`` wrapped to
count calls and bytes, ``P`` under ``cProfile``.  Every mode also reports
the virtual metrics and exact counts, so ``run.py`` can check that the
instrumented passes observed the very same run.
"""

import time

# Host time is read off the process CPU clock (user + system), not the
# wall clock.  The child is single-threaded and CPU-bound, so on an idle
# host the two agree within 1 %; but the sandbox this runs in is throttled
# whenever anything else in the VM is busy, and then the wall clock reads
# up to 2x high for a minute at a time while the CPU clock does not move
# (measured: wall 2.25-2.44 s against CPU 1.82-1.93 s with one other busy
# process).  The wall-clock readings are recorded beside it.
_clock = time.process_time
_START = _clock()  # setup_s starts before ``import repro``
_START_WALL = time.perf_counter()

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
from typing import Any, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
sys.path[:0] = [_SRC, _HERE]

from analysis import fold_profile, percentile, span_self_times  # noqa: E402

# Paper-facing operation categories (§5.2) -> RPC procedures of both
# protocol families; latency comes from the client-side
# ``rpc.<host>.latency.<procedure>`` histograms.
_OP_PROCEDURES = {
    "fetch": ("Fetch", "FetchByFid", "FetchDir"),
    "store": ("Store", "StoreByFid", "CreateByFid"),
    "validate": ("ValidateCache", "ValidateByFid"),
    "status": ("GetStatus", "GetStatusByFid"),
}

# §5.2's operating point, in percent: the only reference the model is
# validated against (there is no hardware reference).
_PAPER = {"validate": 65.0, "status": 27.0, "fetch": 4.0, "store": 2.0,
          "hit_min": 80.0, "cpu": 40.0, "disk": 14.0}


def pin_to_one_cpu():
    """Pin this process to one CPU where the platform allows; returns it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _registry_total(metrics, prefix: str, suffix: str) -> int:
    return sum(metrics.value(name)["total"] for name in metrics.names(prefix)
               if name.endswith(suffix))


def _hit_ratio(metrics, prefix: str, suffix: str) -> float:
    hits = misses = 0
    for name in metrics.names(prefix):
        if name.endswith(suffix):
            counts = metrics.value(name)["counts"]
            hits += counts["hits"]
            misses += counts["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _storage_overhead(campus) -> float:
    """Bytes held across all live servers over bytes in one copy of the data.

    Whole copies hold file bodies (``used_bytes``); coded stripe members
    hold fragments (``fragment_bytes``) while the logical size lives in
    ``logical_bytes`` — so this reads N for N copies and (k+m)/k for a
    k+m stripe.  A crashed server's disk is not counted: its slots have
    been rebuilt elsewhere and its stale primaries would count twice.
    """
    total = primary = 0
    for server in campus.servers:
        if not server.host.up:
            continue
        for volume in server.volumes.values():
            total += volume.used_bytes + volume.fragment_bytes
            if volume.replica_role != "secondary":
                primary += volume.used_bytes + volume.logical_bytes
    return total / primary if primary else 0.0


def _fidelity_max_err_pp(mix: Dict[str, float], hit: float, cpu: float,
                         disk: float) -> float:
    errors = [abs(100.0 * mix.get(op, 0.0) - _PAPER[op])
              for op in ("validate", "status", "fetch", "store")]
    errors.append(max(0.0, _PAPER["hit_min"] - 100.0 * hit))
    errors.append(abs(100.0 * cpu - _PAPER["cpu"]))
    errors.append(abs(100.0 * disk - _PAPER["disk"]))
    return max(errors)


def collect(campus, result, events_before: int, setup_s: float,
            run_wall_s: float, peak_rss_mb: float) -> Dict[str, Any]:
    """Every U-source metric, and the sample counts behind the percentiles,
    read off the campus after the run."""
    metrics = campus.metrics
    start = result.window_start
    events = metrics.value("sim.kernel.events")["total"] - events_before
    cascade = metrics.value("sim.kernel.cascade_events")["total"]
    queue = campus.sim.scheduler_stats
    completed = len(result.latencies)
    attempted = result.actions + result.failures
    calls = _registry_total(metrics, "rpc.", ".calls_sent")
    busiest, cpu = campus.busiest_server(start=start)
    disk = busiest.host.disk_utilization(start)
    mix = campus.campus_call_mix()
    hit = campus.mean_hit_ratio()
    segments = campus.network.segments.values()
    stations = [ws.venus for ws in campus.workstations]
    agents = [s.replication for s in campus.servers
              if s.replication is not None]
    controller = campus.replication_controller
    outages = campus.availability.summary() if campus.availability else None

    out = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "action_p50_ms": 1000.0 * percentile(result.latencies, 0.50),
        "action_p95_ms": 1000.0 * percentile(result.latencies, 0.95),
        "job_virtual_s": sum(result.job_seconds) / len(result.job_seconds),
        "failed_share": result.failures / attempted if attempted else 0.0,
        "lost_writes": sum(v.lost_writes for v in stations)
        + sum(a.divergent_discarded for a in agents),
        "storage_overhead": _storage_overhead(campus),
        "fidelity_max_err_pp": _fidelity_max_err_pp(mix, hit, cpu, disk),

        "sim.events": events,
        "sim.events_per_action": events / completed,
        "sim.cascade_share": cascade / events,
        "sim.queue_pushes": queue.get("pushes", 0),
        "sim.queue_resizes": queue.get("resizes", 0),
        "sim.queue_compactions": queue.get("compactions", 0),
        "sim.wall_us_per_event": 1e6 * run_wall_s / events,
        "sim.events_per_wall_s": events / run_wall_s,
        "net.frames": sum(s.frames_carried for s in segments),
        "net.bytes": sum(s.bytes_carried for s in segments),
        "net.backbone_bytes": campus.cross_cluster_bytes(),
        "net.backbone_util":
            campus.network.segments["backbone"].mean_utilization(start),
        "net.route_cache_hit_ratio": _hit_ratio(metrics, "net.route_cache", ""),
        "rpc.calls": calls,
        "rpc.calls_per_action": calls / completed,
        "rpc.events_per_call": events / calls,
        "rpc.retransmits": _registry_total(metrics, "rpc.", ".retransmits"),
        "storage.disk_ops":
            _registry_total(metrics, "host.", ".disk.operations"),
        "storage.disk_bytes_read":
            _registry_total(metrics, "host.", ".disk.bytes_read"),
        "storage.disk_bytes_written":
            _registry_total(metrics, "host.", ".disk.bytes_written"),
        "storage.busiest_disk_util": disk,
        "vice.busiest_cpu": cpu,
        "vice.busiest_cpu_peak": busiest.host.cpu.utilization.peak_utilization(),
        "vice.callbacks_broken":
            _registry_total(metrics, "vice.", ".callbacks.broken"),
        "vice.cps_cache_hit_ratio":
            _hit_ratio(metrics, "vice.", ".protection.cps_cache"),
        "vice.resolve_cache_hit_ratio":
            _hit_ratio(metrics, "vice.", ".location.resolve_cache"),
        "vice.heartbeats": getattr(controller, "heartbeats", 0),
        "vice.promotions": getattr(controller, "promotions", 0),
        "vice.rebuilds": getattr(controller, "rebuilds", 0),
        "vice.rebuild_bytes":
            sum(getattr(a, "rebuild_bytes", 0) for a in agents),
        "vice.stripe_health": 1.0,
        "venus.hit_ratio": hit,
        "venus.evictions": sum(v.cache.evictions for v in stations),
        "workload.actions": result.actions,
        "workload.failures": result.failures,
        "faults.outages": outages["outages"] if outages else 0,
        "faults.mttr_mean_s": outages["mttr"]["mean"] if outages else 0.0,
    }
    if campus.config.erasure is not None:
        from repro.vice.erasure import stripe_health

        out["vice.stripe_health"] = stripe_health(campus)
    for op in ("validate", "status", "fetch", "store"):
        out[f"vice.call_mix.{op}"] = mix.get(op, 0.0)
    for counter in ("opens", "fetches", "stores", "validations",
                    "callback_breaks_received", "failovers", "degraded_reads"):
        out[f"venus.{counter}"] = sum(getattr(v, counter) for v in stations)

    by_procedure: Dict[str, List[float]] = {}
    for name, bag in metrics.histograms("rpc.").items():
        if ".latency." in name:
            by_procedure.setdefault(name.rsplit(".", 1)[1], []).extend(bag.values)
    samples = {}
    for op, procedures in _OP_PROCEDURES.items():
        pooled = [v for p in procedures for v in by_procedure.get(p, ())]
        samples[f"rpc.{op}"] = len(pooled)
        out[f"rpc.{op}_p50_ms"] = 1000.0 * percentile(pooled, 0.50)
        if op == "fetch":
            out["rpc.fetch_p95_ms"] = 1000.0 * percentile(pooled, 0.95)
    samples["action"] = completed
    return {"metrics": out, "samples": samples}


def _count_crypto(counts: Dict[str, int]) -> None:
    """Wrap the public seal/unseal so pass T counts calls and bytes."""
    import repro.crypto.cipher as cipher

    real_seal, real_unseal = cipher.seal, cipher.unseal

    def seal(key, nonce, plaintext):
        counts["calls"] += 1
        counts["bytes"] += len(plaintext)
        return real_seal(key, nonce, plaintext)

    def unseal(key, sealed):
        counts["calls"] += 1
        counts["bytes"] += len(sealed)
        return real_unseal(key, sealed)

    cipher.seal, cipher.unseal = seal, unseal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("U", "T", "P"), default="U")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans-out", default="",
                        help="mode T: also write the raw spans as JSONL")
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    import repro
    from workloads import build

    built = build(args.workload, args.seed, args.quick)
    campus = built.campus
    setup_s = _clock() - _START
    setup_wall_s = time.perf_counter() - _START_WALL

    recorder = None
    crypto_counts = {"calls": 0, "bytes": 0}
    if args.mode == "T":
        from repro.obs import TraceRecorder

        recorder = TraceRecorder(campus.sim)
        _count_crypto(crypto_counts)
    profiler = cProfile.Profile() if args.mode == "P" else None

    events_before = campus.metrics.value("sim.kernel.events")["total"]
    started, started_wall = _clock(), time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = built.run()
    if profiler is not None:
        profiler.disable()
    run_wall_s = _clock() - started
    wall_clock = {"setup_s": setup_wall_s,
                  "run_s": time.perf_counter() - started_wall}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report: Dict[str, Any] = collect(campus, result, events_before, setup_s,
                                     run_wall_s, peak_rss_mb)
    report.update(workload=args.workload, mode=args.mode, cpu_pin=cpu,
                  clients=built.clients, wall_clock=wall_clock,
                  attempted=result.actions + result.failures,
                  failed=result.failures, violations=built.verify())
    if recorder is not None:
        report["spans"] = span_self_times(recorder.spans)
        report["span_count"] = len(recorder.spans)
        report["crypto"] = crypto_counts
        if args.spans_out:
            recorder.write_jsonl(args.spans_out)
    if profiler is not None:
        report["profile"] = fold_profile(
            pstats.Stats(profiler).stats,
            os.path.dirname(os.path.abspath(repro.__file__)), _HERE)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
