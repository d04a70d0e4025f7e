"""Command-line front end: ``python -m repro <command>``.

Small, self-contained demonstrations of the reproduced system:

* ``info``     — what this package is and what it contains;
* ``andrew``   — the §5.2 5-phase benchmark, local vs remote;
* ``day``      — a synthetic campus day: the §5.2 quantities, then the
  operator's campus report.  ``--plan`` / ``--plan-file`` run a fault
  plan during it (availability, MTTR, ``--timeline`` for the outage
  timeline); ``--replication N`` / ``--erasure K,M`` make its volumes
  redundant (revised mode).  Two recipes ride on it: ``--console`` plays
  the day in the live ops console (a curses dashboard with pause, step,
  pacing and interactive fault injection; ``--headless`` prints plain-text
  frames), and ``--invariants`` checks the soak invariants every window
  and exits 1 on a violation — with ``--diurnal`` and a chaos plan, the
  continuous soak;
* ``mobility`` — the cold-cache/warm-cache mobility measurement.

``andrew`` and ``day`` take one set of observer flags — ``--trace``,
``--jsonl``, ``--check``, ``--metrics-json``, ``--window``, ``--top``,
``--profile``, ``--sort``, ``--invariants``, ``--break-invariant``,
``--window-jsonl`` (see ``--help`` and ``docs/observability.md``).
Durations are virtual seconds.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import math
import pstats
import sys
from contextlib import nullcontext

from repro import ITCSystem, SystemConfig, __version__
from repro.analysis import Table, campus_report, format_share
from repro.analysis.dashboard import hotspot_report
from repro.errors import InvalidArgument
from repro.faults import PRESETS, FaultPlan
from repro.obs import RollingAggregator, TraceRecorder, validate_coverage
from repro.soak import InvariantChecker
from repro.vice.replication import ReplicationConfig
from repro.workload import (
    PHASES,
    DiurnalCurve,
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


def _count(text: str) -> int:
    """A number of rows where 0 means none (``--profile`` off)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive(text: str) -> float:
    """Virtual seconds or hours that must pass: finite and above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _non_negative(text: str) -> float:
    """Virtual seconds where 0 means none (a warm-up, or windows off)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be a non-negative number")
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
    group.add_argument("--window", type=_non_negative, default=None,
                       metavar="SECONDS",
                       help="sample rolling metrics windows every SECONDS of "
                            "virtual time from the end of the warm-up and "
                            "print the hotspot tables (0 = off; default off, "
                            "10 with --console, 600 with --invariants or "
                            "--window-jsonl)")
    group.add_argument("--invariants", action="store_true",
                       help="check the soak invariants every window; exit 1 "
                            "on a violation")
    group.add_argument("--break-invariant", action="store_true",
                       help="--invariants with the pending bound sabotaged "
                            "(the gate's negative control: must exit 1)")
    group.add_argument("--window-jsonl", metavar="FILE", default="",
                       help="write every window as one JSON line")
    group.add_argument("--top", type=_at_least_one, default=5, metavar="N",
                       help="rows per hotspot table (default 5)")
    group.add_argument("--profile", type=_count, default=0, metavar="N",
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
        self.checker = None
        self.violations = []
        self.windows_checked = 0
        self.windows_written = 0
        self.windows_out = None
        self.profiler = cProfile.Profile() if args.profile > 0 else None
        self.invariants = args.invariants or args.break_invariant
        # The recipes that consume windows, and the window each defaults to.
        recipes = [(flag, every) for flag, every, on in (
            ("--console", 10.0, getattr(args, "console", False)),
            ("--invariants", 600.0, self.invariants),
            ("--window-jsonl", 600.0, args.window_jsonl),
        ) if on]
        if args.window is None:
            self.window = recipes[0][1] if recipes else 0.0
        elif args.window == 0 and recipes:
            _usage_error(f"--window: must be a positive number for {recipes[0][0]}")
        else:
            self.window = args.window

    def attach(self, campus) -> None:
        """Record ``campus``'s spans from here on: one span recorder follows
        the command from campus to campus."""
        args = self.args
        if args.trace or args.jsonl or args.check:
            self.recorder = (self.recorder or TraceRecorder(campus.sim)).attach(campus.sim)

    def start_windows(self, campus) -> None:
        """Start the one window clock on ``campus`` (rolling windows cover
        the last campus) and subscribe what the flags asked for: the ops
        log's threshold scan, the windows file and the invariant checker."""
        if not self.window:
            return
        subscribers = [] if campus.ops is None else [campus.ops.scan]
        if self.args.window_jsonl:
            if self.windows_out is None:
                self.windows_out = open(self.args.window_jsonl, "w")
            subscribers.append(self._write_window)
        if self.invariants:
            self.checker = InvariantChecker(
                campus, check_spans=self.recorder is None,
                break_invariant=self.args.break_invariant)
            subscribers.append(self._judge)
        self.aggregator = RollingAggregator(campus.metrics)
        self.aggregator.install_sampler(campus.sim, self.window, *subscribers)

    def _write_window(self, window) -> None:
        json.dump(window, self.windows_out, sort_keys=True)
        self.windows_out.write("\n")
        self.windows_written += 1

    def _judge(self, window) -> None:
        self.windows_checked += 1
        ops = self.checker.campus.ops
        for detail in self.checker.check(window):
            index = self.checker.checks_run
            self.violations.append({"window": index, "t": window["t"],
                                    "detail": detail})
            print(f"INVARIANT VIOLATION in window {index} "
                  f"(t={window['t']:.0f}s): {detail}")
            if ops is not None:
                ops.emit("invariant_violation", window=index, detail=detail)

    def report(self, campus) -> int:
        """Print and write what the observers saw, ``campus`` being the
        last one run; the exit status (1: ``--check`` found a gap or an
        invariant was violated)."""
        args, aggregator, recorder = self.args, self.aggregator, self.recorder
        if aggregator is not None:
            print()
            print(hotspot_report(aggregator, args.top))
            overhead = aggregator.overhead_us
            print(f"\nrolling windows: {len(aggregator.windows)} sampled, snapshot "
                  f"overhead mean {overhead.mean:.0f}us p99 "
                  f"{overhead.percentile(0.99):.0f}us")
        if self.windows_out is not None:
            self.windows_out.close()
            print(f"windows: {self.windows_written} -> {args.window_jsonl}")
        if self.profiler is not None:
            _print_profile(self.profiler, args, campus)
        if args.metrics_json:
            with open(args.metrics_json, "w") as handle:
                json.dump(campus.metrics.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics: {len(campus.metrics)} instruments -> {args.metrics_json}")
        status = 0
        if self.invariants:
            print(f"invariants: {self.windows_checked} windows checked, "
                  f"{len(self.violations)} violations")
            status = 1 if self.violations else 0
        if recorder is None:
            return status
        if args.trace:
            recorder.write_chrome_trace(args.trace)
            print(f"trace: {len(recorder.spans)} spans -> {args.trace}")
        if args.jsonl:
            recorder.write_jsonl(args.jsonl)
            print(f"JSONL: {len(recorder.spans)} spans -> {args.jsonl}")
        if not args.check:
            return status
        problems = validate_coverage(recorder.spans)
        for problem in problems:
            print(f"coverage FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("coverage OK: open->RPC->server->disk for fetch and store")
        return status


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
        observers.start_windows(campus)
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
    """The ``--plan`` preset or ``--plan-file`` plan, or None.  An
    unreadable or malformed plan file is a usage error, and so is a plan
    whose fixed faults all start after the day ends (it would inject
    nothing); plans without fixed faults (clean, chaos) are exempt."""
    if args.plan_file:
        try:
            with open(args.plan_file) as handle:
                plan = FaultPlan.from_dict(json.load(handle))
        except (OSError, ValueError, InvalidArgument) as exc:
            _usage_error(f"--plan-file {args.plan_file}: {exc}")
    elif args.plan:
        plan = PRESETS[args.plan](seed=args.seed)
    elif args.timeline:
        _usage_error("--timeline needs a fault plan (--plan or --plan-file)")
    else:
        return None
    if plan.faults and plan.chaos is None:
        first = min(fault.start for fault in plan.faults)
        end = args.warmup + args.duration
        if first >= end:
            _usage_error(
                f"plan {plan.name!r} would inject nothing: its first fault "
                f"starts at t={first:g} s, the day ends at t={end:g} s "
                f"(--warmup + --duration)"
            )
    return plan


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
    """Run a synthetic campus day: report the §5.2 quantities and the
    campus, or (``--console``) play it in the live ops console."""
    plan = _fault_plan(args)
    observers = _Observers(args)
    if args.events and plan is None and not args.console:
        _usage_error("--events needs a fault plan (--plan or --plan-file) "
                     "or --console")
    if args.json and args.console:
        _usage_error("--json writes the day's summary; --console has none")
    campus = _campus(args, cache_max_files=200, seed=args.seed,
                     fault_plan=plan, **_redundancy(args))
    observers.attach(campus)
    users = provision_campus(campus)
    if args.diurnal:
        pace = DiurnalCurve(start_hour=9.0)  # t = 0 falls at 09:00
        for user in users:
            user.pace = pace
    if args.console:
        campus.ensure_fault_controls()  # before launch: users report outcomes
    if args.events:
        campus.ops.attach_sink(args.events)
    try:
        with observers.profiler or nullcontext():
            if args.console:
                _console_day(args, campus, users, observers)
            else:
                _summary_day(args, campus, users, observers, plan)
    finally:
        if campus.ops is not None:
            campus.ops.close()
    return observers.report(campus)


def _summary_day(args, campus, users, observers, plan) -> None:
    """The day run to each user's last action, then its summary table,
    the campus report and what the fault plan and redundancy did."""
    under = f" under plan {plan.name!r}, seed={plan.seed}" if plan else ""
    print(f"running {len(users)} users for {args.duration:.0f}s "
          f"(+{args.warmup:.0f}s warm-up), mode={args.mode}{under} ...")
    summary = run_campus_day(campus, users, duration=args.duration,
                             warmup=args.warmup,
                             on_measure=lambda: observers.start_windows(campus))
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
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(dict(summary, violations=observers.violations), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"summary -> {args.json}")


def _console_day(args, campus, users, observers) -> None:
    """The day after its warm-up, driven from the live ops console."""
    from repro.console import ConsoleModel, run_console, run_headless
    from repro.obs.live import SimulationController

    launch_campus_day(campus, users, args.duration, warmup=args.warmup)
    observers.start_windows(campus)
    model = ConsoleModel(campus, observers.aggregator,
                         SimulationController(campus.sim, pacing=args.pacing))
    if args.headless:
        run_headless(model, frames=args.frames, print_frames=args.print_frames)
    else:
        run_console(model, horizon=campus.sim.now + args.duration)


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
    day.add_argument("--duration", type=_positive, default=5400.0,
                     help="measured window, virtual seconds (default 5400)")
    day.add_argument("--warmup", type=_non_negative, default=5400.0,
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
    day.add_argument("--diurnal", action="store_true",
                     help="pace users by the weekday activity curve, t = 0 "
                          "at 09:00")
    day.add_argument("--events", metavar="FILE", default="",
                     help="write the campus ops log as JSONL (needs a plan "
                          "or --console)")
    day.add_argument("--json", metavar="FILE", default="",
                     help="write the summary, availability and invariant "
                          "violations as JSON")
    day.add_argument("--console", action="store_true",
                     help="play the day in the live ops console "
                          "(dashboard + interactive faults)")
    day.add_argument("--pacing", type=_positive, default=60.0,
                     help="--console: virtual seconds per wall second (default 60)")
    day.add_argument("--headless", action="store_true",
                     help="--console without curses: advance fixed frames, "
                          "print the last")
    day.add_argument("--frames", type=int, default=12,
                     help="--headless: frames of 10 virtual s (default 12)")
    day.add_argument("--print-frames", action="store_true",
                     help="--headless: print every frame, not just the last")
    day.set_defaults(func=cmd_day)

    sub.add_parser("mobility", help="the mobility penalty").set_defaults(
        func=cmd_mobility
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
