"""The soak invariants: what ``day --invariants`` asserts every window.

§5.2's numbers come from a system that stayed up for months of real use;
one campus day under a clean plan cannot expose slow-burn rot (leaked
kernel callbacks, unbounded reply caches, scheduler corpses, caches that
quietly stop hitting).  A soak is a ``day`` recipe — hours of diurnally
paced load under a chaos plan, ``python -m repro day --diurnal --plan-file
CHAOS --invariants`` — and :class:`InvariantChecker` is the subscriber the
day's window clock hands every window to.  It asserts:

* ``kernel.pending`` stays bounded (no leaked timers/processes);
* the scheduler's lazily-cancelled corpse count stays under its
  compaction threshold (compaction is actually running);
* every connection's at-most-once state stays within the in-flight slack
  (the cumulative ack keeps releasing kept replies through every fault);
* the trace buffer stays empty, unless a span recorder is attached;
* the *windowed* cache hit ratio stays above a floor whenever the window
  saw real traffic (caching still works after the 40th fault);
* availability arithmetic stays consistent — attempts equal successes
  plus failures, every closed episode has an MTTR sample, and failures
  only happen when faults were actually injected recently.

Any violation makes ``day`` exit 1, so the recipe doubles as a CI gate
(the soak day of ``make days-smoke``); ``tests/test_soak.py`` zeroes the
two pending bounds below to prove the gate can fail.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["InvariantChecker"]

# Bounds no run has ever varied (the three a test sets to provoke a
# violation are keyword arguments of InvariantChecker; a negative control
# zeroes the pending pair).
HIT_RATIO_FLOOR = 0.5
MIN_WINDOW_OPENS = 50         # hit-ratio floor only on busy windows
PENDING_PER_WORKSTATION = 20
PENDING_SLACK = 500


class InvariantChecker:
    """Evaluates the soak invariants against one aggregator window.

    ``hit_ratio_skip_windows`` early windows are exempt from the hit-ratio
    floor (caches may still be warming), ``reply_cache_slack`` bounds the
    kept replies per connection (the calls in flight), failures may trail
    a fault by ``fault_grace`` seconds, and ``check_spans=False`` lifts the
    empty-span-buffer bound for a run with a span recorder attached.
    """

    def __init__(self, campus, *, hit_ratio_skip_windows: int = 2,
                 reply_cache_slack: int = 16, fault_grace: float = 600.0,
                 check_spans: bool = True):
        self.campus = campus
        self.sim = campus.sim
        self.hit_ratio_skip_windows = hit_ratio_skip_windows
        self.reply_cache_slack = reply_cache_slack
        self.fault_grace = fault_grace
        self.check_spans = check_spans
        self.max_pending = (PENDING_PER_WORKSTATION * len(campus.workstations)
                            + PENDING_SLACK)
        # Every RPC endpoint whose reply cache must stay bounded.
        self._nodes = ([server.node for server in campus.servers]
                       + [ws.venus.node for ws in campus.workstations])
        self._last_fault_activity: Optional[float] = None
        self.checks_run = 0

    def check(self, window: Dict[str, Any]) -> List[str]:
        """All violations found in this window (empty = healthy)."""
        self.checks_run += 1
        sim = self.sim
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

        cache_bound = self.reply_cache_slack
        worst = 0
        for node in self._nodes:
            for cache in node._reply_cache.values():
                if len(cache) > worst:
                    worst = len(cache)
        if worst > cache_bound:
            found.append(f"reply cache holds {worst} entries, bound "
                         f"{cache_bound} (at-most-once state leak)")

        spans = len(sim.tracer.spans)
        if self.check_spans and spans:
            found.append(f"trace buffer holds {spans} spans, bound 0 "
                         f"(recorder left attached)")

        opens = window["counters"].get("opens", 0.0)
        if (self.checks_run > self.hit_ratio_skip_windows
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
            horizon = window.get("dt", 0.0) + self.fault_grace
            if last is None or window["t"] - last > horizon:
                found.append(
                    f"{avail['failures']:.0f} failures in window at "
                    f"t={window['t']:.0f} with no fault activity within "
                    f"{horizon:.0f}s")
        return found
