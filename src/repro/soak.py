"""The soak driver: days of virtual time under chaos, invariants checked.

§5.2's numbers come from a system that stayed up for months of real use;
one campus day under a clean plan cannot expose slow-burn rot (leaked
kernel callbacks, unbounded reply caches, scheduler corpses, caches that
quietly stop hitting).  ``python -m repro soak`` runs a diurnally-paced
campus for hours-to-days of virtual time with chaos-mode fault injection
on.  It warms the campus with ``day``'s own launch and warm-up
(:func:`~repro.workload.launch_campus_day`), subscribes to the rolling
aggregator's window clock every few virtual minutes, streams windows and
the campus ops log to JSONL, and asserts a set of **soak invariants**
against every window:

* ``kernel.pending`` stays bounded (no leaked timers/processes);
* the scheduler's lazily-cancelled corpse count stays under its
  compaction threshold (compaction is actually running);
* every connection's at-most-once state stays within the in-flight slack
  (the cumulative ack keeps releasing kept replies through every fault);
* the trace buffer stays empty unless a recorder was attached;
* the *windowed* cache hit ratio stays above a floor whenever the window
  saw real traffic (caching still works after the 40th fault);
* availability arithmetic stays consistent — attempts equal successes
  plus failures, every closed episode has an MTTR sample, and failures
  only happen when faults were actually injected recently.

Any violation makes the run exit non-zero, so the soak doubles as a CI
gate (``make soak-smoke``).  ``break_invariant`` deliberately sabotages
the pending bound to prove the gate can fail.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.faults.plan import ChaosConfig, FaultPlan
from repro.obs.live import RollingAggregator
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.workload import DiurnalCurve, launch_campus_day, provision_campus

__all__ = ["InvariantChecker", "SoakConfig", "run_soak"]

# Bounds and shape no run has ever varied (the three a test sets to
# provoke a violation are SoakConfig fields).
START_HOUR = 9.0              # where t=0 falls on the diurnal curve
HIT_RATIO_FLOOR = 0.5
MIN_WINDOW_OPENS = 50         # hit-ratio floor only on busy windows
PENDING_PER_WORKSTATION = 20
PENDING_SLACK = 500
MAX_TRACE_SPANS = 0           # soak attaches no recorder


@dataclass(frozen=True)
class SoakConfig:
    """Shape, duration and invariant bounds for one soak run."""

    clusters: int = 2
    workstations_per_cluster: int = 10
    hours: float = 6.0            # measured virtual time, after warm-up,
                                  # in whole windows (see ``windows``)
    window: float = 600.0         # aggregator window, virtual seconds
    warmup: float = 900.0         # cache-filling prelude, not measured
    seed: int = 0
    # Chaos arrivals (start after warm-up so the baseline is clean).
    chaos_mean_interval: float = 900.0
    chaos_mean_outage: float = 60.0
    # Invariant bounds.
    hit_ratio_skip_windows: int = 2   # caches may still be warming early on
    reply_cache_slack: int = 16   # kept replies per connection: in-flight calls
    fault_grace: float = 600.0    # failures may trail a fault this long
    # Output streams (None: in-memory only).
    metrics_path: Optional[str] = None
    events_path: Optional[str] = None
    # Negative-test sabotage: clamp the pending bound to zero so the very
    # first window violates, proving the gate exits non-zero.
    break_invariant: bool = False

    @property
    def workstations(self) -> int:
        return self.clusters * self.workstations_per_cluster

    @property
    def windows(self) -> int:
        """Measured windows: ``hours`` to the nearest whole window."""
        return max(1, round(self.hours * 3600.0 / self.window))

    @property
    def duration(self) -> float:
        """Measured virtual seconds, ``windows`` whole windows of them."""
        return self.windows * self.window

    @property
    def campus_config(self) -> SystemConfig:
        """The campus this soak runs on."""
        return SystemConfig(
            mode="revised",
            clusters=self.clusters,
            workstations_per_cluster=self.workstations_per_cluster,
            functional_payload_crypto=False,
            cache_max_files=120,
            seed=self.seed,
        )


class InvariantChecker:
    """Evaluates the soak invariants against one aggregator window."""

    def __init__(self, campus, config: SoakConfig):
        self.campus = campus
        self.config = config
        self.sim = campus.sim
        self.max_pending = (0 if config.break_invariant else
                            PENDING_PER_WORKSTATION * config.workstations
                            + PENDING_SLACK)
        # Every RPC endpoint whose reply cache must stay bounded.
        self._nodes = ([server.node for server in campus.servers]
                       + [ws.venus.node for ws in campus.workstations])
        self._last_fault_activity: Optional[float] = None
        self.checks_run = 0

    def check(self, window: Dict[str, Any]) -> List[str]:
        """All violations found in this window (empty = healthy)."""
        self.checks_run += 1
        config, sim = self.config, self.sim
        found: List[str] = []

        pending = sim.pending
        if pending > self.max_pending:
            found.append(f"kernel.pending {pending} exceeds bound "
                         f"{self.max_pending} (leaked timers/processes)")

        stats = sim.scheduler_stats
        dead = stats.get("dead", 0)
        # note_cancel compacts at >= 64 dead once corpses reach half the
        # queue, so a healthy scheduler can never hold more than this.
        dead_bound = max(64, pending // 2 + 2)
        if dead > dead_bound:
            found.append(f"scheduler dead entries {dead} exceed bound "
                         f"{dead_bound} (compaction not running)")

        cache_bound = config.reply_cache_slack
        worst = 0
        for node in self._nodes:
            for cache in node._reply_cache.values():
                if len(cache) > worst:
                    worst = len(cache)
        if worst > cache_bound:
            found.append(f"reply cache holds {worst} entries, bound "
                         f"{cache_bound} (at-most-once state leak)")

        spans = len(sim.tracer.spans)
        if spans > MAX_TRACE_SPANS:
            found.append(f"trace buffer holds {spans} spans, bound "
                         f"{MAX_TRACE_SPANS} (recorder left attached)")

        opens = window["counters"].get("opens", 0.0)
        if (self.checks_run > config.hit_ratio_skip_windows
                and opens >= MIN_WINDOW_OPENS
                and window["hit_ratio"] < HIT_RATIO_FLOOR):
            found.append(f"windowed hit ratio {window['hit_ratio']:.3f} "
                         f"below floor {HIT_RATIO_FLOOR} "
                         f"({opens:.0f} opens)")

        found.extend(self._check_availability(window))
        return found

    def _check_availability(self, window: Dict[str, Any]) -> List[str]:
        tracker = self.campus.availability
        if tracker is None:
            return []
        found: List[str] = []
        if tracker.attempts != tracker.successes + tracker.failures:
            found.append(f"availability arithmetic broken: {tracker.attempts} "
                         f"attempts != {tracker.successes} + {tracker.failures}")
        if len(tracker.episodes) != len(tracker.mttr):
            found.append(f"{len(tracker.episodes)} closed episodes but "
                         f"{len(tracker.mttr)} MTTR samples")
        if tracker.failures and not tracker.counters["faults_injected"]:
            found.append(f"{tracker.failures} operation failures with zero "
                         "injected faults")
        avail = window.get("availability", {})
        if (avail.get("faults_injected") or avail.get("recoveries")
                or avail.get("active_faults")):
            self._last_fault_activity = window["t"]
        if avail.get("failures", 0.0) > 0:
            last = self._last_fault_activity
            horizon = window.get("dt", 0.0) + self.config.fault_grace
            if last is None or window["t"] - last > horizon:
                found.append(
                    f"{avail['failures']:.0f} failures in window at "
                    f"t={window['t']:.0f} with no fault activity within "
                    f"{horizon:.0f}s")
        return found


def _build_soak_campus(config: SoakConfig):
    """A provisioned campus with chaos installed and diurnal pacing on."""
    campus = ITCSystem(config.campus_config)
    users = provision_campus(campus, hot_files=12, cold_files=30,
                             shared_files=40, binary_files=20)
    campus.install_faults(FaultPlan(
        name="soak-chaos",
        seed=config.seed,
        chaos=ChaosConfig(start=config.warmup,
                          mean_interval=config.chaos_mean_interval,
                          mean_outage=config.chaos_mean_outage),
    ))
    pace = DiurnalCurve(start_hour=START_HOUR)
    for user in users:
        user.pace = pace
    return campus, users


def run_soak(config: Optional[SoakConfig] = None,
             echo: Callable[[str], None] = print) -> Dict[str, Any]:
    """One full soak run; returns the report dict (``violations`` key)."""
    config = config or SoakConfig()
    wall_start = time.perf_counter()

    campus, users = _build_soak_campus(config)
    sim, ops = campus.sim, campus.ops
    if config.events_path:
        ops.attach_sink(config.events_path)
    launch_campus_day(campus, users, config.duration, warmup=config.warmup)
    end = sim.now + config.duration

    echo(f"soak: {config.workstations} workstations, {config.hours:.1f} "
         f"virtual hours in {config.windows} windows of {config.window:.0f}s, "
         f"chaos every ~{config.chaos_mean_interval:.0f}s")
    ops.emit("soak", phase="start", workstations=config.workstations,
             windows=config.windows, hours=config.hours)

    metrics = open(config.metrics_path, "w") if config.metrics_path else None
    checker = InvariantChecker(campus, config)
    violations: List[Dict[str, Any]] = []

    def write_window(window: Dict[str, Any]) -> None:
        json.dump(window, metrics, sort_keys=True)
        metrics.write("\n")

    def judge(window: Dict[str, Any]) -> None:
        details = checker.check(window)
        index = checker.checks_run
        for detail in details:
            violations.append({"window": index, "t": window["t"],
                               "detail": detail})
            ops.emit("soak", phase="violation", window=index, detail=detail)
            echo(f"soak: INVARIANT VIOLATION in window {index}: {detail}")
        if index % 6 == 0 or window["t"] >= end:
            echo(f"soak: window {index}/{config.windows} t={window['t']:9.0f}s "
                 f"hit={window['hit_ratio']:.3f} "
                 f"opens/s={window['rates'].get('opens', 0.0):.2f} "
                 f"active_faults={window.get('availability', {}).get('active_faults', 0):.0f}")

    aggregator = RollingAggregator(campus.metrics, maxlen=4096)
    subscribers = [ops.scan] + ([write_window] if metrics else []) + [judge]
    aggregator.install_sampler(sim, config.window, *subscribers)
    events_before = sim._sequence
    run_start = time.perf_counter()
    try:
        sim.run(until=end)
        run_wall = time.perf_counter() - run_start
        events = sim._sequence - events_before
        windows = checker.checks_run
        ops.emit("soak", phase="end", windows=windows, violations=len(violations))
    finally:
        ops.close()
        if metrics is not None:
            metrics.close()

    overhead = aggregator.overhead_us
    report = {
        "shape": {
            "clusters": config.clusters,
            "workstations": config.workstations,
            "virtual_hours": config.hours,
            "window_seconds": config.window,
            "warmup_seconds": config.warmup,
            "chaos_mean_interval": config.chaos_mean_interval,
        },
        "windows": windows,
        "violations": violations,
        "invariant_checks": windows,
        "wall_seconds": round(time.perf_counter() - wall_start, 3),
        "run_wall_seconds": round(run_wall, 3),
        "events": events,
        "events_per_second": round(events / run_wall) if run_wall else 0,
        "ops_events_emitted": len(ops.events),
        "snapshot_overhead_us": {
            "mean": round(overhead.mean, 1),
            "p99": round(overhead.percentile(0.99), 1),
        },
        "virtual_actions": sum(user.actions for user in users),
        "virtual_failures": sum(user.failures for user in users),
        "availability": campus.availability.summary(),
    }
    status = "ok" if not violations else f"{len(violations)} VIOLATIONS"
    echo(f"soak: done — {windows} windows, {events:,} events "
         f"({report['events_per_second']:,}/s), {status}")
    return report
