"""Scheduler equivalence and calendar-queue behavior.

The kernel's event queue is pluggable (``heap`` — the reference binary
heap — and ``calendar`` — the bucketed time wheel).  Everything virtual
must be byte-identical across the two: these tests pin that equivalence
at the raw-queue level, on randomized kernel workloads, and on a
1,000-workstation campus, plus the calendar-specific machinery (overflow
heap, resizing, dead-event compaction) and the ``run(until=)`` horizon
contract.
"""

import random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.schedulers import (
    CalendarQueue,
    HeapScheduler,
    make_scheduler,
    SCHEDULERS,
)

BOTH = sorted(SCHEDULERS)


# ----------------------------------------------------------------------
# raw queue equivalence
# ----------------------------------------------------------------------

class _Stub:
    """Minimal event stand-in: schedulers only read ``_cancelled``."""

    __slots__ = ("_cancelled", "tag")

    def __init__(self, tag):
        self._cancelled = False
        self.tag = tag


def _drain(queue):
    order = []
    while True:
        out = []
        entry = queue.pop_due(None, out)
        if entry is None:
            break
        order.append(entry[2].tag)
        order.extend(e.tag for e in out)
    return order


@pytest.mark.parametrize("seed", range(8))
def test_random_push_pop_orders_identical(seed):
    """Any push mix drains from both queues in the same (time, seq) order."""
    rng = random.Random(seed)
    heap, calendar = HeapScheduler(), CalendarQueue()
    seq = 0
    now = 0.0
    for _ in range(400):
        # A mix of near cohorts, spread timers and far-future outliers.
        kind = rng.random()
        if kind < 0.4:
            when = now + rng.choice([0.001, 0.002, 0.005])
        elif kind < 0.8:
            when = now + rng.uniform(0.001, 5.0)
        else:
            when = now + rng.uniform(100.0, 5000.0)
        seq += 1
        stub = _Stub(seq)
        heap.push(when, seq, stub)
        calendar.push(when, seq, stub)
    assert _drain(heap) == _drain(calendar)
    assert len(heap) == 0 and len(calendar) == 0


def test_cohort_drains_in_sequence_order():
    for name in BOTH:
        queue = make_scheduler(name)
        stubs = [_Stub(i) for i in range(10)]
        for i, stub in enumerate(stubs):
            queue.push(5.0, i, stub)
        queue.push(7.0, 10, _Stub(10))
        out = []
        entry = queue.pop_due(None, out)
        assert entry[2].tag == 0
        assert [e.tag for e in out] == list(range(1, 10))
        assert len(queue) == 1, name


def test_pop_due_leaves_future_entry_queued():
    for name in BOTH:
        queue = make_scheduler(name)
        queue.push(10.0, 1, _Stub(1))
        out = []
        assert queue.pop_due(5.0, out) is None
        assert out == []
        assert len(queue) == 1
        entry = queue.pop_due(None, out)
        assert entry[0] == 10.0 and entry[2].tag == 1, name


def test_calendar_overflow_and_resize_preserve_order():
    """Far-future entries ride the overflow heap and still drain in order."""
    queue = CalendarQueue(width=0.001)  # tiny width forces overflow traffic
    whens = [(i * 37 % 500) * 1.0 + 0.5 for i in range(500)]
    for seq, when in enumerate(whens):
        queue.push(when, seq, _Stub(seq))
    assert queue.stats()["overflow"] > 0
    drained = []
    while True:
        out = []
        entry = queue.pop_due(None, out)
        if entry is None:
            break
        drained.append((entry[0], entry[1]))
        drained.extend((entry[0], e) for e in ())  # cohorts exercised above
    assert drained == sorted(drained)
    assert len(drained) == 500
    assert queue.stats()["overflow"] == 0  # fully migrated and drained


def test_calendar_wheel_grows_with_near_population():
    queue = CalendarQueue(width=1.0)
    for seq in range(300):
        # All near-term (evb 0-3): lands in the wheel, outgrows 32 slots.
        queue.push(0.5 + seq * 0.01, seq, _Stub(seq))
    stats = queue.stats()
    assert stats["resizes"] > 0
    assert stats["buckets"] > CalendarQueue.MIN_BUCKETS
    assert _drain(queue) == list(range(300))


def test_make_scheduler_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("fifo")


# ----------------------------------------------------------------------
# randomized kernel-level equivalence
# ----------------------------------------------------------------------

def _random_workload(sim, seed, log):
    """A process mix: sleeps, same-instant cascades, cancelled guards."""
    rng = random.Random(seed)

    def sleeper(tag, rounds):
        for i in range(rounds):
            delay = rng.choice([0.0, 0.001, 0.25, 1.5, 30.0])
            guard = sim.timeout(60.0)
            yield sim.timeout(delay)
            guard.cancel()
            log.append((round(sim.now, 9), tag, i))

    def spawner(tag):
        yield sim.timeout(0.5)
        for child in range(3):
            sim.process(sleeper((tag, child), 4))
        log.append((round(sim.now, 9), tag, "spawned"))

    for tag in range(10):
        sim.process(sleeper(tag, 6))
    for tag in range(3):
        sim.process(spawner(("spawn", tag)))


@pytest.mark.parametrize("seed", range(5))
def test_kernel_workload_identical_across_schedulers(seed):
    logs = {}
    finals = {}
    for name in BOTH:
        sim = Simulator(scheduler=name)
        log = []
        _random_workload(sim, seed, log)
        sim.run()
        logs[name] = log
        finals[name] = (sim.now, sim._sequence)
    assert logs["calendar"] == logs["heap"]
    assert finals["calendar"] == finals["heap"]


def test_run_until_complete_identical_across_schedulers():
    results = {}
    for name in BOTH:
        sim = Simulator(scheduler=name)

        def work():
            total = 0.0
            for i in range(20):
                yield sim.timeout(0.1 * (i % 5))
                total += sim.now
            return total

        results[name] = (sim.run_until_complete(sim.process(work())), sim.now)
    assert results["calendar"] == results["heap"]


def _sleep_population(sim, seed, log, direct_share):
    """Sleepers, relays and late spawns whose delays come from a small set,
    so zero delays and colliding wake times are the norm.  Each sleep is a
    direct ``yield delay`` with probability ``direct_share`` and a
    ``yield sim.timeout(delay)`` otherwise; the delay stream is drawn in
    execution order, so any reordering derails the rest of the trace."""
    delays = random.Random(seed)
    coin = random.Random(seed + 1000)
    baton = [sim.event()]

    def sleep():
        delay = delays.choice([0.0, 0.0, 0.001, 0.25, 0.25, 1.5, 30.0])
        return delay if coin.random() < direct_share else sim.timeout(delay)

    def sleeper(tag, rounds):
        for i in range(rounds):
            yield sleep()
            log.append((sim.now, tag, i))

    def relay(tag):
        # Same-instant cascades between sleeps: wait for the baton, sleep,
        # pass a fresh one on.
        for i in range(4):
            yield baton[0]
            yield sleep()
            log.append((sim.now, tag, i))
            passed, baton[0] = baton[0], sim.event()
            if not passed.triggered:
                passed.succeed()

    def spawner(tag):
        yield sleep()
        for child in range(3):
            sim.process(sleeper((tag, child), 3))

    def starter():
        yield sleep()
        baton[0].succeed()

    for tag in range(8):
        sim.process(sleeper(tag, 6))
    for tag in range(3):
        sim.process(relay(("relay", tag)))
        sim.process(spawner(("spawn", tag)))
    sim.process(starter())


@pytest.mark.parametrize("scheduler", BOTH)
@pytest.mark.parametrize("seed", range(5))
def test_direct_sleep_trace_identical_to_all_timeouts(scheduler, seed):
    traces = {}
    for share in (0.0, 0.5, 1.0):
        sim = Simulator(scheduler=scheduler)
        log = []
        _sleep_population(sim, seed, log, share)
        sim.run(until=500.0)
        traces[share] = (log, sim._sequence, sim.scheduler_stats["pushes"])
    assert len(traces[0.0][0]) > 60
    assert traces[0.5] == traces[0.0]
    assert traces[1.0] == traces[0.0]


# ----------------------------------------------------------------------
# run(until=) horizon contract
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", BOTH)
def test_event_exactly_at_horizon_fires(scheduler):
    sim = Simulator(scheduler=scheduler)
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10.0)
    assert fired == [10.0]
    assert sim.now == 10.0


@pytest.mark.parametrize("scheduler", BOTH)
def test_event_past_horizon_stays_scheduled(scheduler):
    sim = Simulator(scheduler=scheduler)
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=9.999)
    assert fired == []
    assert sim.now == 9.999
    assert sim.pending == 1
    sim.run()  # the parked event fires on the next run, sequence intact
    assert fired == [10.0]


@pytest.mark.parametrize("scheduler", BOTH)
def test_empty_queue_parks_clock_at_horizon(scheduler):
    sim = Simulator(scheduler=scheduler)
    sim.run(until=42.0)
    assert sim.now == 42.0


@pytest.mark.parametrize("scheduler", BOTH)
def test_zero_delay_self_reschedule_fifo(scheduler):
    """Zero-delay re-arms at the horizon run in creation order, same tick."""
    sim = Simulator(scheduler=scheduler)
    order = []

    def chain(tag, hops):
        for i in range(hops):
            yield sim.timeout(0.0)
            order.append((sim.now, tag, i))

    sim.process(chain("a", 3))
    sim.process(chain("b", 3))
    sim.run(until=0.0)
    assert sim.now == 0.0
    # Cascades interleave FIFO by creation: a0, b0, a1, b1, a2, b2.
    assert order == [(0.0, "a", 0), (0.0, "b", 0), (0.0, "a", 1),
                     (0.0, "b", 1), (0.0, "a", 2), (0.0, "b", 2)]


@pytest.mark.parametrize("scheduler", BOTH)
def test_repeated_horizon_runs_resume_cleanly(scheduler):
    sim = Simulator(scheduler=scheduler)
    fired = []

    def metronome():
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.process(metronome())
    for horizon in (0.5, 1.0, 2.75, 4.0):
        sim.run(until=horizon)
        assert sim.now == horizon
    assert fired == [1.0, 2.0, 3.0, 4.0]


# ----------------------------------------------------------------------
# lazy-cancel compaction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler", BOTH)
def test_cancelled_timers_stay_bounded(scheduler):
    """Retransmit-style churn: guards that always cancel must not pile up."""
    sim = Simulator(scheduler=scheduler)
    peak = [0]

    def churner():
        for _ in range(5000):
            guard = sim.timeout(30.0)  # would linger 30 virtual s un-compacted
            guard.cancel()
            yield sim.timeout(0.001)
            peak[0] = max(peak[0], len(sim._queue))

    sim.process(churner())
    sim.run()
    # Without compaction the queue would hold every un-expired corpse
    # (~5,000 at peak); with it, the live population plus one compaction
    # threshold's worth of dead entries is the ceiling.
    assert peak[0] < 300, f"{scheduler} queue grew to {peak[0]}"
    assert sim.scheduler_stats["compactions"] > 0


@pytest.mark.parametrize("scheduler", BOTH)
def test_cancelled_event_callbacks_never_run(scheduler):
    sim = Simulator(scheduler=scheduler)
    fired = []

    def watcher():
        timer = sim.timeout(1.0)
        timer.add_callback(lambda e: fired.append("cancelled-timer"))
        timer.cancel()
        yield sim.timeout(2.0)
        fired.append("survivor")

    sim.process(watcher())
    sim.run()
    assert fired == ["survivor"]


# ----------------------------------------------------------------------
# stats exposure
# ----------------------------------------------------------------------

def test_scheduler_stats_shape():
    sim = Simulator(scheduler="calendar")
    for _ in range(10):
        sim.timeout(1.0)
    stats = sim.scheduler_stats
    for key in ("scheduler", "pending", "pushes", "buckets", "bucket_width",
                "occupied_buckets", "overflow", "resizes", "dead",
                "compactions", "cascade_events", "events"):
        assert key in stats, key
    assert stats["scheduler"] == "calendar"
    assert stats["pending"] == 10
    assert stats["events"] == stats["pushes"] + stats["cascade_events"]


def test_queue_stats_in_metrics_registry():
    sim = Simulator()
    sim.timeout(5.0)
    snapshot = sim.metrics.snapshot()
    assert snapshot["sim.kernel.events"]["total"] == 1
    assert snapshot["sim.kernel.pending"]["value"] == 1
    queue = snapshot["sim.kernel.queue"]["value"]
    assert queue["scheduler"] == "heap"  # the default
    assert queue["pending"] == 1


def test_config_selects_scheduler():
    from repro.system.config import SystemConfig
    from repro.system.itc import ITCSystem

    for name in BOTH:
        campus = ITCSystem(SystemConfig(clusters=1, workstations_per_cluster=1,
                                        scheduler=name))
        assert campus.sim.scheduler_stats["scheduler"] == name


# ----------------------------------------------------------------------
# metropolis-scale determinism
# ----------------------------------------------------------------------

def _metropolis_run(scheduler):
    """A short day on a 1,000-workstation campus; returns its fingerprint."""
    from repro.system.config import SystemConfig
    from repro.system.itc import ITCSystem
    from repro.workload import provision_campus, run_campus_day

    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=20, workstations_per_cluster=50,
        functional_payload_crypto=False, cache_max_files=60, seed=0,
        scheduler=scheduler,
    ))
    with campus.batch_setup():
        users = provision_campus(campus, hot_files=2, cold_files=2,
                                 shared_files=4, binary_files=2)
    summary = run_campus_day(campus, users, duration=10.0, warmup=5.0)
    return {
        "summary": summary,
        "events": campus.sim._sequence,
        "now": campus.sim.now,
    }


def test_metropolis_1000ws_replay_and_scheduler_equivalence():
    """Same seed, 1,000 workstations: replays and schedulers agree exactly."""
    first = _metropolis_run("calendar")
    replay = _metropolis_run("calendar")
    oracle = _metropolis_run("heap")
    assert first == replay       # determinism: bit-for-bit replay
    assert first == oracle       # equivalence: calendar vs reference heap
    assert first["summary"]["actions"] > 0
