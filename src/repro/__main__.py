"""Command-line front end: ``python -m repro <command>``.

Small, self-contained demonstrations of the reproduced system:

* ``info``     — what this package is and what it contains;
* ``andrew``   — the §5.2 5-phase benchmark, local vs remote;
* ``day``      — a synthetic campus day: the §5.2 quantities, then the
  operator's campus report.  ``--plan`` / ``--plan-file`` run a fault
  plan during it (availability, MTTR, ``--timeline`` for the outage
  timeline); ``--replication N`` / ``--erasure K,M`` make its volumes
  redundant (revised mode);
* ``mobility`` — the cold-cache/warm-cache mobility measurement;
* ``console``  — the live ops console: a campus day rendered as a curses
  dashboard with pause/step/pacing control and interactive fault
  injection (``--headless`` renders plain-text frames instead);
* ``soak``     — the continuous soak driver: hours-to-days of virtual
  time under diurnal load and chaos faults, rolling metrics and ops
  events streamed to JSONL, soak invariants asserted per window (exit
  code 1 on any violation).

``andrew`` and ``day`` take one set of observer flags — ``--trace``,
``--jsonl``, ``--check``, ``--metrics-json``, ``--window``, ``--top``,
``--profile``, ``--sort`` (see ``--help`` and ``docs/observability.md``).
Durations are virtual seconds.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from contextlib import nullcontext

from repro import ITCSystem, SystemConfig, __version__
from repro.analysis import Table, campus_report, format_share
from repro.analysis.dashboard import hotspot_report
from repro.errors import InvalidArgument
from repro.faults import PRESETS, FaultPlan
from repro.obs import RollingAggregator, TraceRecorder, validate_coverage
from repro.vice.replication import ReplicationConfig
from repro.workload import (
    PHASES,
    andrew_campus,
    launch_campus_day,
    provision_campus,
    run_campus_day,
)


def _usage_error(message) -> None:
    """One ``error:`` line and exit status 2, as argparse does for a bad flag."""
    print(f"python -m repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _campus(args, **settings) -> ITCSystem:
    """The campus the ``_campus_flags`` (and ``settings``) describe; a
    refused combination is a usage error, not a traceback."""
    try:
        return ITCSystem(SystemConfig(
            mode=getattr(args, "mode", "revised"), clusters=args.clusters,
            workstations_per_cluster=args.workstations,
            functional_payload_crypto=False, **settings))
    except InvalidArgument as exc:
        _usage_error(exc)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _campus_flags(mode=None, clusters=None, workstations=None):
    """An argparse parent declaring ``--mode`` and the campus shape
    (``--clusters`` / ``--workstations``) with one command's defaults
    (``None``: the command does not take the flag)."""
    flags = argparse.ArgumentParser(add_help=False)
    if mode is not None:
        flags.add_argument("--mode", choices=("prototype", "revised"), default=mode)
    if clusters is not None:
        flags.add_argument("--clusters", type=int, default=clusters,
                           help=f"cluster count (default {clusters})")
        flags.add_argument("--workstations", type=int, default=workstations,
                           help=f"workstations per cluster (default {workstations})")
    return flags


def _observer_flags():
    """An argparse parent declaring every observer flag once; ``andrew``
    and ``day`` both take it, so a flag has one meaning and one unit."""
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_argument_group("observers")
    group.add_argument("--trace", metavar="FILE", default="",
                       help="write the run's spans as a Chrome-trace (Perfetto) file")
    group.add_argument("--jsonl", metavar="FILE", default="",
                       help="write the run's spans as JSON, one per line")
    group.add_argument("--check", action="store_true",
                       help="check the spans cover open -> RPC -> server -> "
                            "disk for a fetch and a store; exit 1 on a gap")
    group.add_argument("--metrics-json", metavar="FILE", default="",
                       help="dump the campus metrics registry as JSON")
    group.add_argument("--window", type=float, default=0.0, metavar="SECONDS",
                       help="sample rolling metrics windows every SECONDS of "
                            "virtual time and print the hotspot tables (0 = off)")
    group.add_argument("--top", type=int, default=5, metavar="N",
                       help="rows per hotspot table (default 5)")
    group.add_argument("--profile", type=int, default=0, metavar="N",
                       help="cProfile the run: the N hottest functions, then "
                            "the cache and event-queue counters (0 = off)")
    group.add_argument("--sort", choices=("cumulative", "tottime"),
                       default="cumulative",
                       help="--profile sort order (default cumulative)")
    return flags


class _Observers:
    """The observers the flags asked for, over every campus a command runs."""

    def __init__(self, args):
        self.args = args
        self.recorder = None
        self.aggregator = None
        self.profiler = cProfile.Profile() if args.profile > 0 else None

    def attach(self, campus) -> None:
        """Observe ``campus`` from here on: one span recorder follows the
        command from campus to campus; rolling windows cover the last."""
        args = self.args
        if args.trace or args.jsonl or args.check:
            self.recorder = (self.recorder or TraceRecorder(campus.sim)).attach(campus.sim)
        if args.window > 0:
            self.aggregator = RollingAggregator(campus.metrics)
            self.aggregator.install_sampler(campus.sim, args.window)

    def report(self, campus) -> int:
        """Print and write what the observers saw, ``campus`` being the
        last one run; the exit status (1: ``--check`` found a gap)."""
        args, aggregator, recorder = self.args, self.aggregator, self.recorder
        if aggregator is not None:
            print()
            print(hotspot_report(aggregator, args.top))
            overhead = aggregator.overhead_us
            print(f"\nrolling windows: {len(aggregator.windows)} sampled, snapshot "
                  f"overhead mean {overhead.mean:.0f}us p99 "
                  f"{overhead.percentile(0.99):.0f}us")
        if self.profiler is not None:
            _print_profile(self.profiler, args, campus)
        if args.metrics_json:
            with open(args.metrics_json, "w") as handle:
                json.dump(campus.metrics.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics: {len(campus.metrics)} instruments -> {args.metrics_json}")
        if recorder is None:
            return 0
        if args.trace:
            recorder.write_chrome_trace(args.trace)
            print(f"trace: {len(recorder.spans)} spans -> {args.trace}")
        if args.jsonl:
            recorder.write_jsonl(args.jsonl)
            print(f"JSONL: {len(recorder.spans)} spans -> {args.jsonl}")
        if not args.check:
            return 0
        problems = validate_coverage(recorder.spans)
        for problem in problems:
            print(f"coverage FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("coverage OK: open->RPC->server->disk for fetch and store")
        return 0


def _print_profile(profiler, args, campus) -> None:
    """``--profile``: wall-clock hot spots, then the simulation counters."""
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.profile)
    print(f"\n=== hot spots (top {args.profile} by {args.sort}) ===")
    print(stream.getvalue().rstrip())

    # The wall-clock picture above only means something next to what the
    # simulation did: pair it with the registry's cache counters so a cold
    # cache or a routing regression is visible alongside the hot functions.
    metrics = campus.metrics
    print(f"\n=== simulation counters ({campus.sim.now:.0f} virtual seconds) ===")
    rows = Table(["instrument", "hits", "misses", "hit rate"], title="caches")
    for name in metrics.names():
        if not name.endswith("cache"):
            continue
        counts = metrics.value(name).get("counts", {})
        hits, misses = counts.get("hits", 0), counts.get("misses", 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        rows.add(name, hits, misses, format_share(rate))
    print(rows)

    # Event-queue health: the kernel is the wall-clock floor, so show how
    # the queue coped — cascade share (events that never touched the
    # time-ordered heap) and dead-event compactions.
    queue = campus.sim.scheduler_stats
    queue_rows = Table(["stat", "value"], title="event queue")
    queue_rows.add("events", queue["events"])
    queue_rows.add("queue pushes", queue["pushes"])
    queue_rows.add("cascade events", queue["cascade_events"])
    queue_rows.add("cascade share", format_share(
        queue["cascade_events"] / queue["events"] if queue["events"] else 0.0))
    queue_rows.add("dead (uncompacted)", queue["dead"])
    queue_rows.add("compactions", queue["compactions"])
    print(queue_rows)


def cmd_info(_args) -> int:
    """Print the package summary."""
    print(f"repro {__version__} — the ITC Distributed File System (SOSP 1985)")
    print(__doc__)
    print("Subpackages: sim, net, crypto, rpc, storage, vice, venus, virtue,")
    print("             system, workload, analysis, obs, faults")
    print("See DESIGN.md / EXPERIMENTS.md, and benchmarks/ for the evaluation.")
    return 0


def cmd_andrew(args) -> int:
    """Run the 5-phase benchmark, on the local disk and against Vice."""
    observers = _Observers(args)
    results = []
    for remote in (False, True):
        campus, bench = andrew_campus(args.mode, remote)
        observers.attach(campus)
        with observers.profiler or nullcontext():
            results.append(campus.run_op(bench.run()))
    local, remote = results
    table = Table(["phase", "local (s)", "remote (s)"],
                  title=f"5-phase benchmark ({args.mode})")
    for phase in PHASES:
        table.add(phase, f"{local.phase_seconds[phase]:.1f}",
                  f"{remote.phase_seconds[phase]:.1f}")
    table.add("Total", f"{local.total_seconds:.0f}", f"{remote.total_seconds:.0f}")
    print(table)
    print(f"\nremote penalty: +{remote.total_seconds / local.total_seconds - 1:.0%}"
          f"  (paper, prototype: about +80%)")
    return observers.report(campus)


def _fault_plan(args):
    """The ``--plan`` preset or ``--plan-file`` plan, or None; an
    unreadable or malformed plan file is a usage error."""
    if args.plan_file:
        try:
            with open(args.plan_file) as handle:
                return FaultPlan.from_dict(json.load(handle))
        except (OSError, ValueError, InvalidArgument) as exc:
            _usage_error(f"--plan-file {args.plan_file}: {exc}")
    if args.plan:
        return PRESETS[args.plan](seed=args.seed)
    if args.timeline:
        _usage_error("--timeline needs a fault plan (--plan or --plan-file)")
    return None


def _redundancy(args) -> dict:
    """The ``SystemConfig`` settings ``--replication`` / ``--erasure`` ask for."""
    settings = {}
    if args.replication > 1:
        settings["replication"] = ReplicationConfig(factor=args.replication)
    if args.erasure:
        from repro.vice.erasure import ErasureConfig

        try:
            k, m = (int(part) for part in args.erasure.split(","))
        except ValueError:
            _usage_error(f"--erasure wants K,M (e.g. 4,2), got {args.erasure!r}")
        try:
            settings["erasure"] = ErasureConfig(data=k, parity=m)
        except ValueError as exc:
            _usage_error(exc)
    return settings


def _redundancy_line(campus, controller) -> str:
    """What the controller did with the failures, one line."""
    erasure = campus.config.erasure
    if erasure is None:
        scheme = f"replication (factor {campus.config.replication.factor})"
        repairs = f"{controller.rereplications} re-replications"
    else:
        scheme = f"erasure ({erasure.data}+{erasure.parity})"
        repairs = f"{controller.rebuilds} stripe rebuilds"
    line = (f"{scheme}: {controller.deaths_declared} deaths declared, "
            f"{controller.promotions} promotions, {repairs}, "
            f"{controller.rejoins} rejoins")
    if erasure is not None:
        degraded = sum(ws.venus.degraded_reads for ws in campus.workstations)
        rebuild_bytes = sum(s.replication.rebuild_bytes for s in campus.servers)
        line += f"; {degraded} degraded reads, {rebuild_bytes} repair-traffic bytes"
    return line


def cmd_day(args) -> int:
    """Run a synthetic campus day; report the §5.2 quantities and the campus."""
    plan = _fault_plan(args)
    campus = _campus(args, cache_max_files=200, seed=args.seed,
                     fault_plan=plan, **_redundancy(args))
    observers = _Observers(args)
    observers.attach(campus)
    users = provision_campus(campus)
    under = f" under plan {plan.name!r}, seed={plan.seed}" if plan else ""
    print(f"running {len(users)} users for {args.duration:.0f}s "
          f"(+{args.warmup:.0f}s warm-up), mode={args.mode}{under} ...")
    with observers.profiler or nullcontext():
        summary = run_campus_day(campus, users, duration=args.duration,
                                 warmup=args.warmup)
    table = Table(["quantity", "value"], title="campus day summary")
    table.add("user actions", summary["actions"])
    table.add("cache hit ratio", format_share(summary["hit_ratio"]))
    for label, share in sorted(summary["call_mix"].items(), key=lambda kv: -kv[1]):
        table.add(f"call mix: {label}", format_share(share))
    table.add("busiest server CPU", format_share(summary["busiest_cpu"]))
    table.add("busiest server disk", format_share(summary["busiest_disk"]))
    table.add("CPU peak (short-term)", format_share(summary["busiest_cpu_peak"]))
    table.add("backbone bytes", summary["cross_cluster_bytes"])
    print(table)
    print()
    print(campus_report(campus))
    if plan is not None:
        injected = {k: v for k, v in campus.fault_scheduler.stats.items() if v}
        events = campus.availability.counters
        print(f"\nfaults: {events['faults_injected']} injected, "
              f"{events['recoveries']} recovered, {events['salvages']} salvage "
              f"passes" + (f"; packet/disk injections: {injected}" if injected else ""))
        ttfs = summary["availability"]["ttfs"]
        if ttfs["count"]:
            print(f"time to first success after recovery: mean {ttfs['mean']:.1f}s, "
                  f"p90 {ttfs['p90']:.1f}s")
    if campus.replication_controller is not None:
        print(_redundancy_line(campus, campus.replication_controller))
    if args.timeline:
        count = campus.availability.write_timeline(args.timeline)
        print(f"timeline: {count} events -> {args.timeline}")
    return observers.report(campus)


def cmd_mobility(_args) -> int:
    """Measure the §3.2 mobility penalty."""
    campus = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=1))
    campus.add_user("prof", "pw")
    campus.create_user_volume("prof", cluster=0)
    session = campus.login("ws0-0", "prof", "pw")
    campus.run_op(session.mkdir("/vice/usr/prof/work"))
    paths = [f"/vice/usr/prof/work/file{i}" for i in range(10)]
    for path in paths:
        campus.run_op(session.write_file(path, b"w" * 4000))

    def read_all(active):
        start = campus.sim.now
        for path in paths:
            campus.run_op(active.read_file(path))
        return campus.sim.now - start

    home = read_all(session)
    away = session.move_to(campus.workstation("ws1-0"), "pw")
    cold = read_all(away)
    warm = read_all(away)
    table = Table(["session", "10-file working set (s)"], title="user mobility")
    table.add("home cluster, warm", f"{home:.3f}")
    table.add("across campus, cold", f"{cold:.3f}")
    table.add("across campus, warm", f"{warm:.3f}")
    print(table)
    print(f"\ninitial penalty {cold / warm:.1f}x, then native speed — §3.2's promise")
    return 0


def cmd_console(args) -> int:
    """Run the live ops console over a fresh campus day."""
    from repro.console import ConsoleModel, run_console, run_headless
    from repro.obs.live import OpsEventStream, SimulationController

    campus = _campus(args)
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    horizon = campus.sim.now + args.hours * 3600.0
    launch_campus_day(campus, users, args.hours * 3600.0)
    controller = SimulationController(campus.sim, pacing=args.pacing)
    stream = OpsEventStream(campus.sim, path=args.events or None)
    model = ConsoleModel(campus, controller, stream=stream,
                         sample_every=args.sample_every)
    # Fault controls created the availability tracker; route every user's
    # operation outcomes through it so outages reach the banner/stream.
    for user in users:
        user.tracker = campus.availability
    try:
        if args.headless:
            return run_headless(model, frames=args.frames,
                                print_frames=args.print_frames)
        return run_console(model, horizon=horizon)
    finally:
        stream.close()


def cmd_soak(args) -> int:
    """Run the soak driver; exit 1 on any invariant violation."""
    from repro.soak import SoakConfig, run_soak

    config = SoakConfig(
        clusters=args.clusters,
        workstations_per_cluster=args.workstations,
        hours=args.hours,
        window=args.window,
        warmup=args.warmup,
        seed=args.seed,
        chaos_mean_interval=args.chaos_interval,
        chaos_mean_outage=args.chaos_outage,
        metrics_path=args.metrics or None,
        events_path=args.events or None,
        break_invariant=args.break_invariant,
    )
    try:
        config.campus_config.validate()
    except InvalidArgument as exc:
        # Exit 1 means "invariant violated"; a refused shape is exit 2.
        _usage_error(exc)
    report = run_soak(config)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report -> {args.json}")
    return 1 if report["violations"] else 0


def main(argv=None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Runnable demonstrations of the ITC DFS reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    observers = _observer_flags()

    sub.add_parser("info", help="package summary").set_defaults(func=cmd_info)

    andrew = sub.add_parser("andrew", help="the 5-phase benchmark",
                            parents=[_campus_flags(mode="prototype"), observers])
    andrew.set_defaults(func=cmd_andrew)

    day = sub.add_parser(
        "day", help="a synthetic campus day + campus report, optionally "
                    "under a fault plan and with redundant volumes",
        parents=[_campus_flags("prototype", 1, 20), observers],
    )
    day.add_argument("--duration", type=float, default=5400.0,
                     help="measured window, virtual seconds (default 5400)")
    day.add_argument("--warmup", type=float, default=5400.0,
                     help="warm-up before measuring, virtual seconds (default 5400)")
    plans = day.add_mutually_exclusive_group()
    plans.add_argument("--plan", choices=sorted(PRESETS), default="",
                       help="run a named fault-plan preset during the day")
    plans.add_argument("--plan-file", metavar="FILE", default="",
                       help="run a FaultPlan loaded from JSON during the day")
    day.add_argument("--seed", type=int, default=0,
                     help="campus and fault-plan seed (default 0)")
    day.add_argument("--replication", type=_at_least_one, default=1, metavar="N",
                     help="keep each volume on N servers, with failover "
                          "(default 1 = off; revised mode)")
    day.add_argument("--erasure", default="", metavar="K,M",
                     help="code each volume into K data + M parity fragments, "
                          "with degraded reads and rebuild (revised mode)")
    day.add_argument("--timeline", metavar="FILE", default="",
                     help="write the fault/outage timeline as JSON (needs a plan)")
    day.set_defaults(func=cmd_day)

    sub.add_parser("mobility", help="the mobility penalty").set_defaults(
        func=cmd_mobility
    )

    console = sub.add_parser(
        "console", help="live ops console: dashboard + interactive faults",
        parents=[_campus_flags(clusters=2, workstations=4)],
    )
    console.add_argument("--hours", type=float, default=2.0,
                         help="virtual hours of campus day to run (default 2)")
    console.add_argument("--pacing", type=float, default=60.0,
                         help="virtual seconds per wall second (default 60)")
    console.add_argument("--sample-every", type=float, default=10.0,
                         help="rolling-window interval, virtual s (default 10)")
    console.add_argument("--events", metavar="FILE", default="",
                         help="also write the ops-event stream as JSONL")
    console.add_argument("--headless", action="store_true",
                         help="no curses: advance fixed frames, print the last")
    console.add_argument("--frames", type=int, default=12,
                         help="--headless: frames to advance (default 12)")
    console.add_argument("--print-frames", action="store_true",
                         help="--headless: print every frame, not just the last")
    console.set_defaults(func=cmd_console)

    soak = sub.add_parser(
        "soak", help="continuous soak under chaos; invariant-checked windows",
        parents=[_campus_flags(clusters=2, workstations=10)],
    )
    soak.add_argument("--hours", type=float, default=6.0,
                      help="measured virtual hours (default 6)")
    soak.add_argument("--window", type=float, default=600.0,
                      help="invariant/metrics window, virtual s (default 600)")
    soak.add_argument("--warmup", type=float, default=900.0,
                      help="warm-up virtual seconds (default 900)")
    soak.add_argument("--seed", type=int, default=0,
                      help="campus + chaos seed (default 0)")
    soak.add_argument("--chaos-interval", type=float, default=900.0,
                      help="mean seconds between chaos faults (default 900)")
    soak.add_argument("--chaos-outage", type=float, default=60.0,
                      help="mean chaos fault duration (default 60)")
    soak.add_argument("--metrics", metavar="FILE", default="",
                      help="write one rolling window per line as JSONL")
    soak.add_argument("--events", metavar="FILE", default="",
                      help="write the ops-event stream as JSONL")
    soak.add_argument("--json", metavar="FILE", default="",
                      help="write the final soak report as JSON")
    soak.add_argument("--break-invariant", action="store_true",
                      help="sabotage the pending bound (negative test: the "
                           "run must exit 1)")
    soak.set_defaults(func=cmd_soak)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
