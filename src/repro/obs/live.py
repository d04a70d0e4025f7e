"""Live operations: run control, rolling metrics and the ops-event stream.

The dashboard and the metrics registry answer "what happened?" after a run
finishes; this module answers "what is happening *now*?", which is how the
paper's Vice was actually kept alive — §5.2's response to overload and
failure is operational (watch the servers, move volumes, restart machines).
Three pieces, all pure observers of a running campus:

* :class:`SimulationController` — wraps the kernel's run loop from the
  *outside* with pause/resume, single-event and fixed-virtual-time
  stepping, virtual-time breakpoints and a wall-clock pacing throttle.
  It never touches :class:`~repro.sim.kernel.Simulator` internals beyond
  calling ``run(until=...)``/``step()``, so a campus driven through a
  controller replays byte-identically to one driven directly.
* :class:`RollingAggregator` — turns successive
  :class:`~repro.obs.registry.MetricsRegistry` readings into *windows*:
  ring buffers of counter deltas (→ rates), windowed histogram
  percentiles (p50/p99 over the samples added this window, not since
  boot), windowed per-host CPU/disk utilization, and top-K hot
  volumes/users/servers.  Sampling is read-only and its own wall cost is
  measured (``overhead_us``) so observability overhead is a tracked
  number, not a hope.  Its counters come through :class:`CounterReader`,
  the one counter reader it shares with
  :class:`~repro.analysis.monitor.CampusMonitor`.
* :class:`OpsEventStream` — a structured JSONL event stream: fault /
  recovery / salvage events and outage begin/end straight from the
  :class:`~repro.obs.availability.AvailabilityTracker` hooks, plus
  derived events (callback-break storms, cache pressure) detected from
  aggregator windows, plus operator actions from the console.

None of the three exists unless explicitly constructed, so unobserved
campuses pay nothing — the same zero-cost-when-off contract as the tracer
and the fault subsystem.
"""

from __future__ import annotations

import json
import time
from bisect import insort
from collections import deque
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.metrics import Samples

__all__ = ["CounterReader", "OpsEventStream", "RollingAggregator",
           "SimulationController"]


class SimulationController:
    """Interactive run control for one :class:`~repro.sim.kernel.Simulator`.

    The controller is a *driver*, not a kernel hook: it advances the
    simulation in bounded ``run(until=...)`` slices and makes its control
    decisions between slices.  Virtual outcomes are therefore identical to
    an uncontrolled run — events still fire in (time, sequence) order, the
    clock still parks exactly at each requested horizon.

    ``pacing`` is the wall-clock throttle: at most ``pacing`` virtual
    seconds may elapse per wall second (None = unthrottled).  The console
    uses it to play a campus day at watchable speed; the soak driver leaves
    it off.
    """

    def __init__(self, sim, pacing: Optional[float] = None):
        self.sim = sim
        self.pacing = pacing
        self.paused = False
        self._breakpoints: List[float] = []
        self.last_breakpoint: Optional[float] = None
        self.events_stepped = 0

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> str:
        return "paused" if self.paused else "running"

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def toggle(self) -> bool:
        """Flip paused/running; returns True when now paused."""
        self.paused = not self.paused
        return self.paused

    # -- breakpoints -------------------------------------------------------

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(self._breakpoints)

    def add_breakpoint(self, when: float) -> None:
        """Auto-pause when the clock reaches virtual time ``when``."""
        if when <= self.sim.now:
            raise SimulationError(
                f"breakpoint at t={when} is not in the future (now={self.sim.now})"
            )
        if when not in self._breakpoints:
            insort(self._breakpoints, when)

    def clear_breakpoints(self) -> None:
        del self._breakpoints[:]

    def _next_breakpoint(self, until: float) -> Optional[float]:
        now = self.sim.now
        for when in self._breakpoints:
            if when > now:
                return when if when <= until else None
        return None

    # -- stepping (works while paused) -------------------------------------

    def step_event(self, count: int = 1) -> int:
        """Process up to ``count`` single events; returns how many ran."""
        done = 0
        for _ in range(count):
            try:
                self.sim.step()
            except IndexError:
                break
            done += 1
        self.events_stepped += done
        return done

    def step_time(self, delta: float) -> float:
        """Advance exactly ``delta`` virtual seconds, even while paused."""
        if delta < 0:
            raise SimulationError(f"cannot step backwards ({delta!r})")
        target = self.sim.now + delta
        self.sim.run(until=target)
        return self.sim.now

    # -- continuous advance ------------------------------------------------

    def advance(self, until: float) -> float:
        """Run toward ``until``; honours pause state and breakpoints.

        Returns the clock after the slice.  If a breakpoint lies in
        ``(now, until]`` the run stops exactly there and the controller
        pauses itself (``last_breakpoint`` records which one fired).
        """
        if self.paused:
            return self.sim.now
        breakpoint_at = self._next_breakpoint(until)
        if breakpoint_at is not None:
            self.sim.run(until=breakpoint_at)
            self._breakpoints.remove(breakpoint_at)
            self.last_breakpoint = breakpoint_at
            self.paused = True
        else:
            self.sim.run(until=until)
        return self.sim.now

    def tick(self, wall_elapsed: float, horizon: Optional[float] = None) -> float:
        """One frame of a paced loop: advance per the pacing budget.

        ``wall_elapsed`` is the wall seconds since the previous tick; with
        ``pacing`` set, at most ``pacing * wall_elapsed`` virtual seconds
        elapse.  Returns virtual seconds actually advanced.
        """
        if self.paused:
            return 0.0
        start = self.sim.now
        target = horizon
        if self.pacing is not None:
            budget = start + self.pacing * max(0.0, wall_elapsed)
            target = budget if target is None else min(target, budget)
        if target is None:
            raise SimulationError("tick() without pacing needs a horizon")
        if target > start:
            self.advance(target)
        return self.sim.now - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimulationController {self.state} t={self.sim.now:.1f} "
                f"pacing={self.pacing}>")


class CounterReader:
    """Counter instruments of one registry, read as growth since a baseline.

    The one way an observer reads counters: the rolling aggregator moves
    the baseline at every window, the campus monitor only when it opens a
    new observation window.  Each reading is the instrument's own
    :meth:`~repro.obs.registry.Instrument.read_safe` — the typed record
    ``snapshot()`` returns — so nothing guesses what a provider hands
    back, and a dead provider reads as no counts.  Growth clamps at zero:
    a counter reset or replaced underneath (the end of a warm-up) reads
    as no traffic, never as negative traffic.
    """

    def __init__(self, metrics):
        self.metrics = metrics
        self.baseline: Dict[str, int] = {}

    def counts(self, name: str) -> Dict[str, int]:
        """``{label: count}`` now.  An unlabelled counter is one ``""``
        label; an absent, unavailable or non-counter instrument has none."""
        instrument = self.metrics.get(name)
        if instrument is None or instrument.kind != "counter":
            return {}
        reading = instrument.read_safe()
        if reading.get("unavailable"):
            return {}
        return reading.get("counts", {"": reading["total"]})

    def total(self, name: str, advance: bool = True) -> int:
        """Growth of the instrument's total since the baseline."""
        return self._grown(name, sum(self.counts(name).values()), advance)

    def labelled(self, name: str, advance: bool = True) -> Dict[str, int]:
        """Growth of each label since the baseline; labels that did not
        grow are left out."""
        grown = {}
        for label, count in self.counts(name).items():
            delta = self._grown(f"{name}|{label}", count, advance)
            if delta:
                grown[label] = delta
        return grown

    def summed(self, names: Iterable[str], advance: bool = True,
               key: Callable[[str], str] = str) -> Dict[str, int]:
        """Each label's growth summed over ``names``, under ``key(label)``."""
        totals: Dict[str, int] = {}
        for name in names:
            for label, delta in self.labelled(name, advance).items():
                totals[key(label)] = totals.get(key(label), 0) + delta
        return totals

    def rebase(self, names: Iterable[str]) -> None:
        """Make the current readings of ``names`` the baseline."""
        for name in names:
            self.total(name)
            self.labelled(name)

    def _grown(self, key: str, value: int, advance: bool) -> int:
        previous = self.baseline.get(key, 0)
        if advance:
            self.baseline[key] = value
        return max(0, value - previous)


# The instruments the aggregator reads, by name suffix: the campus-wide
# counters summed into a window's ``counters`` first, then the per-host ones.
_CAMPUS_COUNTERS = {
    "opens": ".opens",
    "fetches": ".fetches",
    "stores": ".stores",
    "validations": ".validations",
    "cache_hits": ".cache.hits",
    "cache_misses": ".cache.misses",
    "evictions": ".cache.evictions",
    "callback_breaks": ".callback_breaks_received",
    "disk_ops": ".disk.operations",
}
_BUCKETS = dict(_CAMPUS_COUNTERS, rpc_calls=".calls_received",
                volume_traffic=".volume_traffic", usage_by_user=".usage_by_user",
                host_util=(".cpu", ".disk"))


class RollingAggregator:
    """Rolling windows of deltas, rates and top-K over a metrics registry.

    Each :meth:`sample` reads the registry once, diffs against the previous
    reading, and appends one *window* dict to a bounded ring buffer.  A
    window carries:

    * ``counters`` / ``rates`` — campus-wide deltas (opens, fetches,
      stores, validations, cache hits/misses, evictions, callback breaks,
      disk ops, RPC calls, kernel events) and their per-second rates;
    * ``hit_ratio`` — the *windowed* cache hit ratio (this window's hits
      over this window's lookups);
    * ``latency`` — p50/p99/mean over the RPC latency samples recorded in
      this window only;
    * ``hosts`` — per-host windowed CPU/disk utilization and RPC call
      deltas;
    * ``volumes`` / ``users`` / ``servers`` — traffic deltas for top-K
      ranking (:meth:`top`);
    * ``availability`` — failure/success deltas and active-fault gauges,
      when a fault plan is installed;
    * ``overhead_us`` — the wall-clock microseconds this very sample cost.

    Reads are fault-tolerant: an instrument whose provider raises (its
    component crashed or was replaced mid-run) reads as no counts for that
    window, matching :meth:`MetricsRegistry.snapshot`'s hardening.
    """

    def __init__(self, metrics, maxlen: int = 256):
        self.metrics = metrics
        self.windows: deque = deque(maxlen=maxlen)
        self.reader = CounterReader(metrics)
        self._prev_t: Optional[float] = None
        self._hist_cursor: Dict[str, int] = {}
        self._classified = -1
        self._buckets: Dict[str, List[str]] = {}
        self.samples_taken = 0
        self.overhead_us = Samples("aggregator-overhead-us")
        self._sampler_installed = False

    # -- classification ----------------------------------------------------

    def _classify(self) -> None:
        """Map instrument names to read buckets; refreshed when the
        instrument set changes (components appear on crash/recover)."""
        buckets: Dict[str, List[str]] = {key: [] for key in _BUCKETS}
        for name in self.metrics.names():
            for key, suffix in _BUCKETS.items():
                if name.endswith(suffix):
                    buckets[key].append(name)
                    break
        self._buckets = buckets
        self._classified = len(self.metrics)

    # -- sampling ----------------------------------------------------------

    def sample(self, now: float) -> Dict[str, Any]:
        """Take one window reading at virtual time ``now``."""
        wall_start = time.perf_counter()
        if self._classified != len(self.metrics):
            self._classify()
        buckets, reader = self._buckets, self.reader
        prev_t = self._prev_t if self._prev_t is not None else now
        dt = max(now - prev_t, 0.0)
        safe_dt = dt if dt > 0 else 1.0

        counters: Dict[str, float] = {}
        for key in _CAMPUS_COUNTERS:
            total = 0.0
            for name in buckets[key]:
                total += reader.total(name)
            counters[key] = total

        # Per-host RPC call deltas (servers dominate; the console filters).
        servers: Dict[str, float] = {}
        rpc_total = 0.0
        for name in buckets["rpc_calls"]:
            delta = reader.total(name)
            host = name.split(".")[1]
            servers[host] = servers.get(host, 0.0) + delta
            rpc_total += delta
        counters["rpc_calls"] = rpc_total

        events_delta = float(reader.total("sim.kernel.events"))

        # Labelled traffic deltas: volumes aggregate over "volume|segment"
        # labels, users over usernames.
        volumes = reader.summed(buckets["volume_traffic"],
                                key=lambda label: label.partition("|")[0])
        users = reader.summed(buckets["usage_by_user"])

        # Windowed latency percentiles over this window's new samples only.
        latency_values: List[float] = []
        for name, bag in self.metrics.histograms("rpc.").items():
            if ".latency." not in name:
                continue
            cursor = self._hist_cursor.get(name, 0)
            fresh = bag.since(cursor)
            self._hist_cursor[name] = cursor + len(fresh)
            latency_values.extend(fresh)
        latency = _distribution(latency_values)

        # Windowed per-host utilization from the trackers themselves.
        hosts: Dict[str, Dict[str, float]] = {}
        for name in buckets["host_util"]:
            _, host, resource = name.split(".", 2)
            try:
                busy = self.metrics.get(name).provider().mean_utilization(
                    start=prev_t, end=now)
            except Exception:  # a crashed host's clock can be mid-replacement
                busy = 0.0
            hosts.setdefault(host, {})[resource] = busy
        for host, calls in servers.items():
            hosts.setdefault(host, {})["calls"] = calls

        window: Dict[str, Any] = {
            "t": now,
            "dt": dt,
            "events": events_delta,
            "events_per_s": events_delta / safe_dt,
            "counters": counters,
            "rates": {key: value / safe_dt for key, value in counters.items()},
            "hit_ratio": _ratio(counters["cache_hits"],
                                counters["cache_hits"] + counters["cache_misses"]),
            "latency": latency,
            "hosts": hosts,
            "volumes": {name: float(delta) for name, delta in volumes.items()},
            "users": {name: float(delta) for name, delta in users.items()},
            "servers": servers,
        }
        if "availability.ops" in self.metrics:
            window["availability"] = self._availability_window()
        self._prev_t = now
        self.samples_taken += 1
        overhead = (time.perf_counter() - wall_start) * 1e6
        window["overhead_us"] = overhead
        self.overhead_us.add(overhead)
        self.windows.append(window)
        return window

    def _availability_window(self) -> Dict[str, float]:
        ops = self.reader.labelled("availability.ops")
        events = self.reader.labelled("availability.events")
        return {
            "failures": float(ops.get("failure", 0)),
            "successes": float(ops.get("success", 0)),
            "faults_injected": float(events.get("faults_injected", 0)),
            "recoveries": float(events.get("recoveries", 0)),
            "open_outages": self._gauge("availability.open_outages"),
            "active_faults": self._gauge("faults.active"),
        }

    def _gauge(self, name: str) -> float:
        instrument = self.metrics.get(name)
        reading = instrument.read_safe() if instrument is not None else {}
        return float(reading.get("value", 0.0))

    # -- optional kernel-driven sampling -----------------------------------

    def install_sampler(self, sim, every: float) -> None:
        """Spawn a kernel process that samples every ``every`` virtual
        seconds.  The process only reads — it draws no randomness and
        charges no simulated resources — so other events' relative order
        and every seeded draw are unchanged.  Used by the ``--window``
        CLI flags; the console and soak drivers sample from *outside* the
        kernel instead and need no process at all.
        """
        if self._sampler_installed:
            raise SimulationError("aggregator sampler already installed")
        if every <= 0:
            raise SimulationError(f"sampler interval {every!r} must be positive")
        self._sampler_installed = True

        def loop():
            while True:
                yield float(every)
                self.sample(sim.now)

        sim.process(loop(), name="obs:rolling-sampler")

    # -- reading -----------------------------------------------------------

    @property
    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent window (None before the first sample)."""
        return self.windows[-1] if self.windows else None

    def top(self, field: str, k: int = 5,
            cumulative: bool = True) -> List[Tuple[str, float]]:
        """Top-``k`` (name, delta) for ``field`` in {volumes, users, servers}.

        ``cumulative`` sums over every retained window; otherwise only the
        most recent window counts.
        """
        totals: Dict[str, float] = {}
        windows = list(self.windows) if cumulative else list(self.windows)[-1:]
        for window in windows:
            for name, delta in window.get(field, {}).items():
                totals[name] = totals.get(name, 0.0) + delta
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def series(self, key: str, n: Optional[int] = None) -> List[float]:
        """The trend of one ``rates`` entry (or ``hit_ratio`` /
        ``events_per_s``) across retained windows, oldest first."""
        windows = list(self.windows)
        if n is not None:
            windows = windows[-n:]
        out = []
        for window in windows:
            if key in window:
                out.append(window[key])
            else:
                out.append(window["rates"].get(key, 0.0))
        return out

    def peak(self, key: str) -> float:
        """The highest per-window value of a rate/series key."""
        values = self.series(key)
        return max(values) if values else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RollingAggregator windows={len(self.windows)} "
                f"instruments={len(self.metrics)}>")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _distribution(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}
    ordered = sorted(values)
    count = len(ordered)

    def pct(q: float) -> float:
        rank = min(count - 1, max(0, int(q * count + 0.999999) - 1))
        return ordered[rank]

    return {
        "count": count,
        "mean": sum(ordered) / count,
        "p50": pct(0.50),
        "p99": pct(0.99),
    }


class OpsEventStream:
    """Structured operational events, buffered and optionally JSONL-streamed.

    Event records are flat JSON objects with at least ``t`` (virtual
    seconds) and ``event`` (the type).  Types emitted today:

    ``fault`` / ``recovery`` / ``salvage``
        straight from the fault scheduler via the availability tracker's
        listener hook, with ``kind``/``target`` and injector detail;
    ``outage_begin`` / ``outage_end``
        a user's first failed operation / the next success (``outage_end``
        carries ``duration`` and ``failures``);
    ``callback_break_storm`` / ``cache_pressure``
        derived from an aggregator window by :meth:`scan` when the break
        or eviction rate crosses its threshold;
    ``operator``
        console actions (crash/partition/chaos requests), so an exported
        stream records *why* a fault appeared;
    ``soak``
        soak-driver lifecycle marks (window boundaries, violations).

    The in-memory buffer is a bounded deque; with ``path`` (or an open
    ``stream``) each event is also written immediately as one JSON line.
    """

    def __init__(self, sim, path: Optional[str] = None,
                 stream: Optional[IO[str]] = None, maxlen: int = 4096,
                 break_storm_rate: float = 10.0,
                 eviction_rate: float = 5.0):
        self.sim = sim
        self.events: deque = deque(maxlen=maxlen)
        self.emitted = 0
        self.break_storm_rate = break_storm_rate
        self.eviction_rate = eviction_rate
        self._handle: Optional[IO[str]] = stream
        self._owns_handle = False
        if path:
            self._handle = open(path, "w")
            self._owns_handle = True
        self._tracker = None

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, **fields) -> Dict[str, Any]:
        """Record one event; ``t`` defaults to the current virtual time."""
        record = {"t": fields.pop("t", self.sim.now), "event": event}
        record.update(fields)
        self.events.append(record)
        self.emitted += 1
        if self._handle is not None:
            json.dump(record, self._handle, sort_keys=True)
            self._handle.write("\n")
        return record

    def tail(self, n: int = 10) -> List[Dict[str, Any]]:
        """The most recent ``n`` events, oldest first."""
        return list(self.events)[-n:]

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()
            self._handle = None

    # -- availability hook -------------------------------------------------

    def attach_availability(self, tracker) -> None:
        """Subscribe to a tracker's fault/recovery/outage hooks."""
        self._tracker = tracker
        tracker.listener = self._on_availability_event

    def _on_availability_event(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        event = record.pop("event")
        self.emit(event, **record)

    # -- derived events ----------------------------------------------------

    def scan(self, window: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Derive threshold events from one aggregator window."""
        derived = []
        rates = window.get("rates", {})
        if rates.get("callback_breaks", 0.0) > self.break_storm_rate:
            derived.append(self.emit(
                "callback_break_storm", t=window["t"],
                rate_per_s=round(rates["callback_breaks"], 3),
                threshold=self.break_storm_rate,
            ))
        if rates.get("evictions", 0.0) > self.eviction_rate:
            derived.append(self.emit(
                "cache_pressure", t=window["t"],
                evictions_per_s=round(rates["evictions"], 3),
                threshold=self.eviction_rate,
            ))
        return derived

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpsEventStream buffered={len(self.events)} emitted={self.emitted}>"
