"""Command-line front end: ``python -m repro <command>``.

Small, self-contained demonstrations of the reproduced system:

* ``info``     — what this package is and what it contains;
* ``andrew``   — the §5.2 5-phase benchmark, local vs remote;
* ``day``      — a synthetic campus day, reporting the §5.2 quantities;
* ``mobility`` — the cold-cache/warm-cache mobility measurement;
* ``status``   — a short campus day followed by the operator's dashboard;
* ``chaos``    — a campus day under an injected fault plan (or seeded
  random chaos), reporting availability, MTTR and the outage timeline;
* ``trace``    — a traced benchmark run exported as a Chrome-trace file;
* ``profile``  — a cProfile'd workload: wall-clock hot spots printed next
  to the simulation's cache counters (see ``docs/performance.md``);
* ``console``  — the live ops console: a campus day rendered as a curses
  dashboard with pause/step/pacing control and interactive fault
  injection (``--headless`` renders plain-text frames instead);
* ``soak``     — the continuous soak driver: hours-to-days of virtual
  time under diurnal load and chaos faults, rolling metrics and ops
  events streamed to JSONL, soak invariants asserted per window (exit
  code 1 on any violation).

``andrew`` and ``status`` accept ``--trace FILE`` (write a Perfetto-loadable
trace of the run) and ``--metrics-json FILE`` (dump the campus metrics
registry); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import ITCSystem, SystemConfig, __version__
from repro.analysis import Table, campus_report, format_share
from repro.analysis.dashboard import availability_report, hotspot_report
from repro.errors import InvalidArgument
from repro.faults import PRESETS, FaultPlan
from repro.obs import RollingAggregator, TraceRecorder, validate_coverage
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


def _load_plan(path: str) -> FaultPlan:
    """The fault plan in a JSON file; an unreadable or malformed one is a
    usage error."""
    try:
        with open(path) as handle:
            return FaultPlan.from_dict(json.load(handle))
    except (OSError, ValueError, InvalidArgument) as exc:
        _usage_error(f"--plan-file {path}: {exc}")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _campus_flags(mode=None, clusters=None, workstations=None, note=""):
    """An argparse parent declaring ``--mode`` and the campus shape
    (``--clusters`` / ``--workstations``) with one command's defaults
    (``None``: the command does not take the flag)."""
    flags = argparse.ArgumentParser(add_help=False)
    if mode is not None:
        flags.add_argument("--mode", choices=("prototype", "revised"), default=mode)
    if clusters is not None:
        flags.add_argument("--clusters", type=int, default=clusters,
                           help=f"{note}cluster count (default {clusters})")
        flags.add_argument("--workstations", type=int, default=workstations,
                           help=f"{note}workstations per cluster "
                                f"(default {workstations})")
    return flags


def _rolling_flags(command) -> None:
    """The shared ``--window`` / ``--top`` rolling-aggregator flags."""
    command.add_argument("--window", type=float, default=0.0, metavar="SECONDS",
                        help="sample rolling metrics windows every SECONDS of "
                             "virtual time (0 = off)")
    command.add_argument("--top", type=int, default=0, metavar="N",
                        help="print the top-N hot volumes/users/servers from "
                             "the rolling windows (0 = off)")


def _install_rolling(args, campus):
    """Attach a sampling RollingAggregator when --window/--top asked for one."""
    if args.window <= 0 and args.top <= 0:
        return None
    every = args.window if args.window > 0 else 300.0
    aggregator = RollingAggregator(campus.metrics)
    aggregator.install_sampler(campus.sim, every)
    return aggregator


def _finish_rolling(args, aggregator) -> None:
    """Print the hotspot tables the rolling windows accumulated."""
    if aggregator is None:
        return
    print()
    print(hotspot_report(aggregator, args.top if args.top > 0 else 5))
    overhead = aggregator.overhead_us
    print(f"\nrolling windows: {len(aggregator.windows)} sampled, snapshot "
          f"overhead mean {overhead.mean:.0f}us p99 "
          f"{overhead.percentile(0.99):.0f}us")


def cmd_info(_args) -> int:
    """Print the package summary."""
    print(f"repro {__version__} — the ITC Distributed File System (SOSP 1985)")
    print(__doc__)
    print("Subpackages: sim, net, crypto, rpc, storage, vice, venus, virtue,")
    print("             system, workload, analysis, obs, faults")
    print("See DESIGN.md / EXPERIMENTS.md, and benchmarks/ for the evaluation.")
    return 0


def _attach_recorder(args, campus) -> TraceRecorder:
    """Attach (or move) the run's trace recorder when ``--trace`` was given."""
    recorder = getattr(args, "_recorder", None)
    if recorder is None:
        recorder = TraceRecorder(campus.sim)
        args._recorder = recorder
    else:
        recorder.attach(campus.sim)
    return recorder


def _finish_obs(args, campus) -> None:
    """Write the ``--trace`` / ``--metrics-json`` outputs, if requested."""
    recorder = getattr(args, "_recorder", None)
    if recorder is not None and args.trace:
        recorder.write_chrome_trace(args.trace)
        print(f"trace: {len(recorder.spans)} spans -> {args.trace}")
    if getattr(args, "metrics_json", None):
        with open(args.metrics_json, "w") as handle:
            json.dump(campus.metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics: {len(campus.metrics)} instruments -> {args.metrics_json}")


def _andrew_once(mode: str, remote: bool, args=None):
    campus, bench = andrew_campus(mode, remote)
    if args is not None and getattr(args, "trace", None):
        _attach_recorder(args, campus)
    return campus, campus.run_op(bench.run())


def cmd_andrew(args) -> int:
    """Run the 5-phase benchmark."""
    _, local = _andrew_once(args.mode, remote=False, args=args)
    campus, remote = _andrew_once(args.mode, remote=True, args=args)
    table = Table(["phase", "local (s)", "remote (s)"],
                  title=f"5-phase benchmark ({args.mode})")
    for phase in PHASES:
        table.add(phase, f"{local.phase_seconds[phase]:.1f}",
                  f"{remote.phase_seconds[phase]:.1f}")
    table.add("Total", f"{local.total_seconds:.0f}", f"{remote.total_seconds:.0f}")
    print(table)
    print(f"\nremote penalty: +{remote.total_seconds / local.total_seconds - 1:.0%}"
          f"  (paper, prototype: about +80%)")
    _finish_obs(args, campus)
    return 0


def cmd_day(args) -> int:
    """Run a synthetic campus day and report the §5.2 quantities."""
    campus = _campus(args, cache_max_files=200)
    users = provision_campus(campus)
    print(f"running {len(users)} users for {args.hours:.1f}h "
          f"(+{args.warmup:.1f}h warm-up), mode={args.mode} ...")
    summary = run_campus_day(
        campus, users, duration=args.hours * 3600.0, warmup=args.warmup * 3600.0
    )
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
    return 0


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


def cmd_status(args) -> int:
    """Run a brief campus day, then print the operator's dashboard."""
    campus = _campus(args)
    if args.trace:
        _attach_recorder(args, campus)
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    run_campus_day(campus, users, duration=args.duration, warmup=args.warmup)
    print(campus_report(campus))
    _finish_obs(args, campus)
    return 0


def cmd_chaos(args) -> int:
    """Run a campus day under a fault plan; report availability and MTTR."""
    if args.plan_file:
        plan = _load_plan(args.plan_file)
    else:
        plan = PRESETS[args.plan](seed=args.seed)
    replication = None
    if args.replication > 1:
        from repro.vice.replication import ReplicationConfig

        replication = ReplicationConfig(factor=args.replication)
    erasure = None
    if args.erasure:
        from repro.vice.erasure import ErasureConfig

        try:
            k, m = (int(part) for part in args.erasure.split(","))
        except ValueError:
            _usage_error(f"--erasure wants K,M (e.g. 4,2), got {args.erasure!r}")
        try:
            erasure = ErasureConfig(data=k, parity=m)
        except ValueError as exc:
            _usage_error(exc)
    campus = _campus(args, seed=args.seed, fault_plan=plan,
                     replication=replication, erasure=erasure)
    if args.trace:
        _attach_recorder(args, campus)
    aggregator = _install_rolling(args, campus)
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    print(f"running {len(users)} users for {args.duration:.0f}s "
          f"(+{args.warmup:.0f}s warm-up) under plan {plan.name!r}, "
          f"seed={plan.seed} ...")
    summary = run_campus_day(campus, users, duration=args.duration,
                             warmup=args.warmup)
    print(availability_report(campus))
    scheduler = campus.fault_scheduler
    injected = {k: v for k, v in scheduler.stats.items() if v}
    events = campus.availability.counters
    print(f"\nfaults: {events['faults_injected']} injected, "
          f"{events['recoveries']} recovered, {events['salvages']} salvage "
          f"passes" + (f"; packet/disk injections: {injected}" if injected else ""))
    ttfs = summary["availability"]["ttfs"]
    if ttfs["count"]:
        print(f"time to first success after recovery: mean {ttfs['mean']:.1f}s, "
              f"p90 {ttfs['p90']:.1f}s")
    controller = campus.replication_controller
    if controller is not None and erasure is not None:
        degraded = sum(ws.venus.degraded_reads for ws in campus.workstations)
        rebuild_bytes = sum(
            s.replication.rebuild_bytes for s in campus.servers
            if s.replication is not None
        )
        print(f"erasure ({erasure.data}+{erasure.parity}): "
              f"{controller.deaths_declared} deaths declared, "
              f"{controller.promotions} promotions, "
              f"{controller.rebuilds} stripe rebuilds, "
              f"{controller.rejoins} rejoins; "
              f"{degraded} degraded reads, "
              f"{rebuild_bytes} repair-traffic bytes")
    elif controller is not None:
        print(f"replication (factor {args.replication}): "
              f"{controller.deaths_declared} deaths declared, "
              f"{controller.promotions} promotions, "
              f"{controller.rereplications} re-replications, "
              f"{controller.rejoins} rejoins")
    if args.timeline:
        count = campus.availability.write_timeline(args.timeline)
        print(f"timeline: {count} events -> {args.timeline}")
    _finish_rolling(args, aggregator)
    _finish_obs(args, campus)
    return 0


def cmd_profile(args) -> int:
    """cProfile a workload; print hot spots next to the obs-layer counters."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    aggregator = None
    if args.workload == "andrew":
        print("profiling: andrew benchmark (remote, revised mode) ...")
        profiler.enable()
        campus, result = _andrew_once("revised", remote=True)
        profiler.disable()
        virtual = result.total_seconds
    else:
        campus = _campus(args)
        if args.window > 0:
            aggregator = RollingAggregator(campus.metrics)
            aggregator.install_sampler(campus.sim, args.window)
        with campus.batch_setup():
            users = provision_campus(campus, hot_files=8, cold_files=8,
                                     shared_files=8, binary_files=6)
        print(f"profiling: campus day, {len(users)} users, "
              f"{args.duration:.0f}s after {args.warmup:.0f}s warm-up ...")
        start = campus.sim.now
        profiler.enable()
        run_campus_day(campus, users, duration=args.duration,
                       warmup=args.warmup)
        profiler.disable()
        virtual = campus.sim.now - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(f"\n=== hot spots (top {args.top} by {args.sort}) ===")
    print(stream.getvalue().rstrip())

    # The wall-clock picture above only means something next to what the
    # simulation did: pair it with the registry's cache counters so a cold
    # cache or a routing regression is visible alongside the hot functions.
    metrics = campus.metrics
    print(f"\n=== simulation counters ({virtual:.0f} virtual seconds) ===")
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
    stats = campus.sim.scheduler_stats
    queue_rows = Table(["stat", "value"], title="event queue")
    queue_rows.add("events", stats["events"])
    queue_rows.add("queue pushes", stats["pushes"])
    queue_rows.add("cascade events", stats["cascade_events"])
    queue_rows.add("cascade share", format_share(
        stats["cascade_events"] / stats["events"] if stats["events"] else 0.0))
    queue_rows.add("dead (uncompacted)", stats["dead"])
    queue_rows.add("compactions", stats["compactions"])
    print(queue_rows)

    # --window: the rolling-window hotspot view of the same run, so "which
    # volume/user is hot" sits next to "which function is hot".
    _finish_rolling(args, aggregator)
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


def cmd_trace(args) -> int:
    """Run a short traced benchmark and export the trace."""
    campus, bench = andrew_campus("revised", remote=True)
    recorder = TraceRecorder(campus.sim)
    result = campus.run_op(bench.run())

    recorder.write_chrome_trace(args.out)
    print(f"{len(recorder.spans)} spans over {result.total_seconds:.0f} virtual "
          f"seconds -> {args.out}")
    if args.jsonl:
        recorder.write_jsonl(args.jsonl)
        print(f"JSONL -> {args.jsonl}")
    if args.check:
        problems = validate_coverage(recorder.spans)
        for problem in problems:
            print(f"coverage FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("coverage OK: open->RPC->server->disk for fetch and store")
    return 0


def main(argv=None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Runnable demonstrations of the ITC DFS reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def obs_flags(command):
        command.add_argument("--trace", metavar="FILE", default="",
                             help="write a Chrome-trace (Perfetto) file of the run")
        command.add_argument("--metrics-json", metavar="FILE", default="",
                             help="dump the campus metrics registry as JSON")

    sub.add_parser("info", help="package summary").set_defaults(func=cmd_info)

    andrew = sub.add_parser("andrew", help="the 5-phase benchmark",
                            parents=[_campus_flags(mode="prototype")])
    obs_flags(andrew)
    andrew.set_defaults(func=cmd_andrew)

    day = sub.add_parser("day", help="a synthetic campus day",
                         parents=[_campus_flags("prototype", 1, 20)])
    day.add_argument("--hours", type=float, default=1.5)
    day.add_argument("--warmup", type=float, default=1.5)
    day.set_defaults(func=cmd_day)

    sub.add_parser("mobility", help="the mobility penalty").set_defaults(
        func=cmd_mobility
    )

    status = sub.add_parser("status", help="campus day + operator dashboard",
                            parents=[_campus_flags("revised", 2, 4)])
    status.add_argument("--duration", type=float, default=600.0,
                        help="measured window, virtual seconds (default 600)")
    status.add_argument("--warmup", type=float, default=120.0,
                        help="warm-up before measuring, virtual seconds (default 120)")
    obs_flags(status)
    status.set_defaults(func=cmd_status)

    chaos = sub.add_parser(
        "chaos", help="campus day under fault injection; availability report",
        parents=[_campus_flags("revised", 2, 4)],
    )
    chaos.add_argument("--plan", choices=sorted(PRESETS), default="server-crash",
                       help="named fault plan preset (default server-crash)")
    chaos.add_argument("--plan-file", metavar="FILE", default="",
                       help="load a FaultPlan from JSON instead of a preset")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (default 0)")
    chaos.add_argument("--duration", type=float, default=1800.0,
                       help="measured window, virtual seconds (default 1800)")
    chaos.add_argument("--warmup", type=float, default=120.0,
                       help="warm-up before measuring, virtual seconds (default 120)")
    chaos.add_argument("--replication", type=_at_least_one, default=1, metavar="N",
                       help="replicate each volume on N servers with heartbeat "
                            "failover (default 1 = off; revised mode only)")
    chaos.add_argument("--erasure", default="", metavar="K,M",
                       help="erasure-code each volume into K data + M parity "
                            "fragments on distinct servers, with degraded "
                            "reads and background rebuild (default off; "
                            "revised mode only, exclusive with --replication)")
    chaos.add_argument("--timeline", metavar="FILE", default="",
                       help="write the fault/outage timeline as JSON")
    obs_flags(chaos)
    _rolling_flags(chaos)
    chaos.set_defaults(func=cmd_chaos)

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

    profile = sub.add_parser(
        "profile", help="cProfile a workload; hot spots + cache counters",
        parents=[_campus_flags(clusters=2, workstations=5,
                               note="campus workload: ")],
    )
    profile.add_argument("workload", choices=("andrew", "campus"), nargs="?",
                         default="andrew",
                         help="what to profile (default andrew)")
    profile.add_argument("--top", type=int, default=15,
                         help="how many hot functions to print (default 15)")
    profile.add_argument("--sort", choices=("cumulative", "tottime"),
                         default="cumulative",
                         help="pstats sort order (default cumulative)")
    profile.add_argument("--duration", type=float, default=120.0,
                         help="campus workload: measured virtual seconds (default 120)")
    profile.add_argument("--warmup", type=float, default=30.0,
                         help="campus workload: warm-up virtual seconds (default 30)")
    profile.add_argument("--window", type=float, default=0.0, metavar="SECONDS",
                         help="campus workload: sample rolling metrics windows "
                              "every SECONDS of virtual time (0 = off)")
    profile.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace", help="run a short traced benchmark, export a Chrome trace"
    )
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="Chrome-trace output path (default trace.json)")
    trace.add_argument("--jsonl", metavar="FILE", default="",
                       help="also write one-span-per-line JSONL")
    trace.add_argument("--check", action="store_true",
                       help="validate end-to-end span coverage; exit 1 on gaps")
    trace.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
