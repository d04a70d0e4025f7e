"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Simulator


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


def test_process_is_alive_flag():
    sim = Simulator()

    def child():
        yield sim.timeout(10.0)

    proc = sim.process(child())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


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


def test_any_of_fires_on_first():
    sim = Simulator()

    def leg(delay):
        yield sim.timeout(delay)

    def parent():
        legs = [sim.process(leg(d)) for d in (3.0, 1.0, 2.0)]
        yield sim.any_of(legs)
        return sim.now

    assert sim.run_until_complete(sim.process(parent())) == 1.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        yield sim.all_of([])
        return sim.now

    assert sim.run_until_complete(sim.process(parent())) == 0.0


def test_interrupt_raises_inside_process():
    sim = Simulator()
    outcome = {}

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            outcome["cause"] = exc.cause
        return "survived"

    def attacker(target):
        yield sim.timeout(2.0)
        target.interrupt("preempt")

    target = sim.process(victim())
    sim.process(attacker(target))
    assert sim.run_until_complete(target) == "survived"
    assert outcome["cause"] == "preempt"
    assert sim.now == 2.0


def test_interrupt_of_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


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


def test_stale_interrupt_after_process_finished_is_ignored():
    # Two interrupts are scheduled before either is delivered; the first
    # delivery finishes the process, so the second reaches a finished
    # process.  The stale delivery must be dropped (and its failure
    # defused) instead of corrupting the process state.
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            return "stopped"

    proc = sim.process(victim())

    def manager():
        yield sim.timeout(1.0)
        proc.interrupt("one")
        proc.interrupt("two")

    sim.process(manager())
    assert sim.run_until_complete(proc) == "stopped"
    sim.run()  # the stale interrupt must drain without an orphaned failure


def test_abandoned_event_failure_after_interrupt_is_defused():
    # A process is interrupted away from an event that subsequently fails.
    # Nobody waits on that failure any more; it must not crash the run.
    sim = Simulator()
    doomed = sim.event()

    def waiter():
        try:
            yield doomed
        except Interrupt:
            yield sim.timeout(5.0)
        return "recovered"

    proc = sim.process(waiter())

    def manager():
        yield sim.timeout(1.0)
        proc.interrupt("change of plan")
        yield sim.timeout(1.0)
        doomed.fail(RuntimeError("boom"))

    sim.process(manager())
    assert sim.run_until_complete(proc) == "recovered"
    sim.run()  # the abandoned failure must not surface as an orphan


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


def test_interrupted_direct_sleep_orphan_is_swallowed_exactly_once():
    # The victim is interrupted out of a sleep due at t=10, then sleeps again
    # to the very same instant.  The orphaned queue entry must not wake it;
    # the real one must, in its own (later) sequence position.
    sim = Simulator()
    log = []

    def victim():
        try:
            yield 10.0
            log.append(("overslept", sim.now))
        except Interrupt as exc:
            log.append((exc.cause, sim.now))
        yield 8.0
        log.append(("victim", sim.now))
        yield 5.0
        log.append(("victim", sim.now))
        return "done"

    def witness():
        yield 1.0
        yield 9.0  # filed after the orphan, before the victim's second sleep
        log.append(("witness", sim.now))

    def attacker(target):
        yield 2.0
        target.interrupt("preempt")

    target = sim.process(victim())
    sim.process(witness())
    sim.process(attacker(target))
    assert sim.run_until_complete(target) == "done"
    assert log == [("preempt", 2.0), ("witness", 10.0), ("victim", 10.0),
                   ("victim", 15.0)]
    sim.run()
    assert sim.pending == 0


def test_orphaned_direct_sleep_outliving_its_process_is_harmless():
    sim = Simulator()
    finished = []

    def victim():
        try:
            yield 100.0
        except Interrupt:
            return "stopped"

    proc = sim.process(victim())
    proc.add_callback(lambda event: finished.append(sim.now))

    def attacker():
        yield 1.0
        proc.interrupt("one")
        proc.interrupt("two")

    sim.process(attacker())
    assert sim.run_until_complete(proc) == "stopped"
    sim.run()  # the orphan pops at t=100 against a finished process
    assert finished == [1.0]
    assert sim.now == 100.0


def test_orphaned_direct_sleep_does_not_wake_an_event_wait():
    sim = Simulator()
    gate = sim.event()

    def victim():
        try:
            yield 5.0
        except Interrupt:
            pass
        value = yield gate
        return value, sim.now

    proc = sim.process(victim())

    def manager():
        yield 1.0
        proc.interrupt()
        yield 9.0
        gate.succeed("opened")

    sim.process(manager())
    assert sim.run_until_complete(proc) == ("opened", 10.0)
