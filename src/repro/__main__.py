"""Command-line front end: ``python -m repro <command>``.

Small, self-contained demonstrations of the reproduced system:

* ``info``     — what this package is and what it contains;
* ``andrew``   — the §5.2 5-phase benchmark, local vs remote;
* ``day``      — a synthetic campus day: the §5.2 quantities, then the
  operator's campus report.  ``--scenario`` picks the day from the
  catalogue (``repro.workload.scenario``; default ``proto-20``), and the
  other flags override it.  ``--plan`` / ``--plan-file`` run a fault
  plan during it (availability, MTTR, the outage timeline);
  ``--replication N`` / ``--erasure K,M`` make its volumes redundant
  (revised mode).  ``--invariants`` checks the soak invariants every
  window and exits 1 on a violation — with ``--diurnal`` and a chaos
  plan, the continuous soak.  What a day records under ``--out DIR``
  is how one watches it.

``andrew`` and ``day`` take one set of observer flags — ``--out``,
``--trace``, ``--check``, ``--window``, ``--invariants`` (see ``--help``
and ``docs/observability.md``).  ``--out DIR`` is the run's one record: every
file the run writes goes there under a fixed name (``RECORD``).
Durations are virtual seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro import __version__
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
    run_campus_day,
)
from repro.workload.scenario import SCENARIOS


def _usage_error(message) -> None:
    """One ``error:`` line and exit status 2, as argparse does for a bad flag."""
    print(f"python -m repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
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


def _observer_flags():
    """An argparse parent declaring every observer flag once; ``andrew``
    and ``day`` both take it, so a flag has one meaning and one unit."""
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_argument_group("observers")
    group.add_argument("--out", metavar="DIR", default="",
                       help="write the run's record under DIR, each file at "
                            "a fixed name (see docs/observability.md)")
    group.add_argument("--trace", action="store_true",
                       help="record the run's spans (a Chrome-trace file "
                            "and JSON lines under --out)")
    group.add_argument("--check", action="store_true",
                       help="check the spans cover open -> RPC -> server -> "
                            "disk for a fetch and a store; exit 1 on a gap")
    group.add_argument("--window", type=_non_negative, default=None,
                       metavar="SECONDS",
                       help="sample rolling metrics windows every SECONDS of "
                            "virtual time from the end of the warm-up and "
                            "print the hotspot tables (0 = off; default off, "
                            "600 with --invariants)")
    group.add_argument("--invariants", action="store_true",
                       help="check the soak invariants every window; exit 1 "
                            "on a violation")
    return flags


# A run's record under ``--out DIR``: every file a run may write, by name.
# ``plan.json`` is the fault plan the day ran, so that ``command.json``
# replays without the ``--plan-file`` it was given.
RECORD = ("command.json", "summary.json", "metrics.json", "windows.jsonl",
          "ops.jsonl", "timeline.json", "trace.json", "spans.jsonl", "plan.json")


class _Observers:
    """The observers the flags asked for, over every campus a command runs."""

    def __init__(self, args):
        self.args = args
        self.recorder = None
        self.aggregator = None
        self.checker = None
        self.violations = []
        self.windows_checked = 0
        self.windows_out = None
        if args.window is None:
            self.window = 600.0 if args.invariants else 0.0
        elif args.window == 0 and args.invariants:
            _usage_error("--window: must be a positive number for --invariants")
        else:
            self.window = args.window
        if args.trace and not (args.out or args.check):
            _usage_error("--trace needs --out DIR (or --check)")
        if not args.out:
            return
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            _usage_error(f"--out {args.out}: {exc.strerror}")
        for name in RECORD:  # an earlier run's record: DIR holds only this run's
            if os.path.isfile(self._path(name)):
                os.remove(self._path(name))
        self._write_json("command.json", self._replayable(args.argv))

    def _replayable(self, argv):
        """``argv`` with a ``--plan-file`` naming the record's own copy."""
        argv = list(argv)
        copy = self._path("plan.json")
        for index, token in enumerate(argv):
            if token.startswith("--plan-f"):  # argparse takes abbreviations
                if "=" in token:
                    argv[index] = token.split("=", 1)[0] + "=" + copy
                else:
                    argv[index + 1] = copy
        return argv

    def _path(self, name: str) -> str:
        """The path of record file ``name`` under ``--out DIR``."""
        return os.path.join(self.args.out, name)

    def _write_json(self, name: str, value) -> None:
        with open(self._path(name), "w") as handle:
            json.dump(value, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def attach(self, campus) -> None:
        """Record ``campus``'s spans from here on (one span recorder
        follows the command from campus to campus) and stream its ops log
        into the record."""
        if self.args.trace or self.args.check:
            self.recorder = (self.recorder or TraceRecorder(campus.sim)).attach(campus.sim)
        if self.args.out and campus.ops is not None:
            campus.ops.attach_sink(self._path("ops.jsonl"))
        if self.args.out and campus.config.fault_plan is not None:
            self._write_json("plan.json", campus.config.fault_plan.to_dict())

    def start_windows(self, campus) -> None:
        """Start the one window clock on ``campus`` (rolling windows cover
        the last campus) and subscribe what the flags asked for: the ops
        log's threshold scan, the record's windows file and the invariant
        checker."""
        if not self.window:
            return
        subscribers = [] if campus.ops is None else [campus.ops.scan]
        if self.args.out:
            if self.windows_out is None:
                self.windows_out = open(self._path("windows.jsonl"), "w")
            subscribers.append(self._write_window)
        if self.args.invariants:
            self.checker = InvariantChecker(campus, check_spans=self.recorder is None)
            subscribers.append(self._judge)
        self.aggregator = RollingAggregator(campus.metrics)
        self.aggregator.install_sampler(campus.sim, self.window, *subscribers)

    def _write_window(self, window) -> None:
        json.dump(window, self.windows_out, sort_keys=True)
        self.windows_out.write("\n")

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

    def report(self, campus, summary=None) -> int:
        """Print what the observers saw and write the rest of the record,
        ``campus`` being the last one run and ``summary`` a day's; the
        exit status (1: ``--check`` found a gap or an invariant was
        violated)."""
        args, aggregator, recorder = self.args, self.aggregator, self.recorder
        if aggregator is not None:
            print()
            print(hotspot_report(aggregator, campus))
            overhead = aggregator.overhead_us
            print(f"\nrolling windows: {aggregator.samples_taken} sampled, snapshot "
                  f"overhead mean {overhead.mean:.0f}us p99 "
                  f"{overhead.percentile(0.99):.0f}us")
        if args.out:
            # Windows and ops were streamed; the rest is written now.
            if self.windows_out is not None:
                self.windows_out.close()
            if summary is not None:
                self._write_json("summary.json", dict(summary, violations=self.violations))
            self._write_json("metrics.json", campus.metrics.snapshot())
            if campus.availability is not None:
                campus.availability.write_timeline(self._path("timeline.json"))
            if recorder is not None:
                recorder.write_chrome_trace(self._path("trace.json"))
                recorder.write_jsonl(self._path("spans.jsonl"))
            written = [name for name in RECORD if os.path.isfile(self._path(name))]
            print(f"record: {', '.join(written)} -> {args.out}")
        status = 0
        if args.invariants:
            print(f"invariants: {self.windows_checked} windows checked, "
                  f"{len(self.violations)} violations")
            status = 1 if self.violations else 0
        if not args.check:
            return status
        problems = validate_coverage(recorder.spans)
        for problem in problems:
            print(f"coverage FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("coverage OK: open->RPC->server->disk for fetch and store")
        return status


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


def _scenario(args):
    """The ``--scenario`` row, each flag given in place of its field."""
    flags = {"mode": args.mode, "clusters": args.clusters,
             "workstations_per_cluster": args.workstations,
             "warmup": args.warmup, "duration": args.duration}
    row = SCENARIOS[args.scenario]().with_(
        **{name: value for name, value in flags.items() if value is not None},
        **_redundancy(args))
    plan = _fault_plan(args, row)
    return row if plan is None else row.with_(fault_plan=plan, crash_at=None)


def _fault_plan(args, row):
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
    else:
        return None
    if plan.faults and plan.chaos is None:
        first = min(fault.start for fault in plan.faults)
        end = row.warmup + row.duration
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
    if args.replication is not None:
        settings["replication"] = (ReplicationConfig(factor=args.replication)
                                   if args.replication > 1 else None)
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
    campus."""
    scenario = _scenario(args)
    try:
        campus, users = scenario.build(args.seed)
    except InvalidArgument as exc:  # a refused shape or combination
        _usage_error(exc)
    observers = _Observers(args)
    observers.attach(campus)
    if args.diurnal:
        pace = DiurnalCurve(start_hour=9.0)  # t = 0 falls at 09:00
        for user in users:
            user.pace = pace
    try:
        summary = _summary_day(scenario, campus, users, observers)
    finally:
        if campus.ops is not None:
            campus.ops.close()
    return observers.report(campus, summary)


def _summary_day(scenario, campus, users, observers) -> dict:
    """The day run to each user's last action, then its summary table,
    the campus report and what the fault plan and redundancy did; the
    day's summary."""
    plan = campus.config.fault_plan
    under = f" under plan {plan.name!r}, seed={plan.seed}" if plan else ""
    print(f"running {len(users)} users for {scenario.duration:.0f}s "
          f"(+{scenario.warmup:.0f}s warm-up), mode={campus.config.mode}{under} ...")
    summary = run_campus_day(campus, users, duration=scenario.duration,
                             warmup=scenario.warmup,
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
    return summary


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
                            parents=[observers])
    andrew.add_argument("--mode", choices=("prototype", "revised"),
                        default="prototype")
    andrew.set_defaults(func=cmd_andrew)

    day = sub.add_parser(
        "day", help="a synthetic campus day + campus report, optionally "
                    "under a fault plan and with redundant volumes",
        parents=[observers],
    )
    # A flag left out keeps the scenario's value.
    day.add_argument("--scenario", choices=list(SCENARIOS), default="proto-20",
                     help="the catalogue day to run (default proto-20, the "
                          "20-workstation prototype day); the mode, shape, "
                          "length, plan and redundancy flags override it")
    day.add_argument("--mode", choices=("prototype", "revised"))
    day.add_argument("--clusters", type=int, help="cluster count")
    day.add_argument("--workstations", type=int, help="workstations per cluster")
    day.add_argument("--duration", type=_positive, help="measured window, virtual seconds")
    day.add_argument("--warmup", type=_non_negative,
                     help="warm-up before measuring, virtual seconds")
    plans = day.add_mutually_exclusive_group()
    plans.add_argument("--plan", choices=sorted(PRESETS), default="",
                       help="run a named fault-plan preset during the day")
    plans.add_argument("--plan-file", metavar="FILE", default="",
                       help="run a FaultPlan loaded from JSON during the day")
    day.add_argument("--seed", type=int, default=0,
                     help="added to the scenario's campus and provisioning "
                          "seeds; the fault plan's seed (default 0)")
    day.add_argument("--replication", type=_at_least_one, metavar="N",
                     help="keep each volume on N servers, with failover "
                          "(1 = off; revised mode)")
    day.add_argument("--erasure", metavar="K,M",
                     help="code each volume into K data + M parity fragments, "
                          "with degraded reads and rebuild (revised mode)")
    day.add_argument("--diurnal", action="store_true",
                     help="pace users by the weekday activity curve, t = 0 "
                          "at 09:00")
    day.set_defaults(func=cmd_day)

    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
