"""Tests for live operations (repro.obs.live): controller, rolling
aggregator and the structured ops-event stream."""

import json

import pytest

from tests.helpers import alice_session, run, small_campus

from repro.errors import SimulationError
from repro.faults.plan import Fault, FaultPlan
from repro.obs.live import (
    CounterReader,
    OpsEventStream,
    RollingAggregator,
    SimulationController,
)
from repro.sim.kernel import Simulator
from repro.sim.metrics import Samples
from repro.workload import launch_campus_day, provision_campus


# ======================================================================
# SimulationController: run control from outside the kernel
# ======================================================================


def ticker(sim, log, every=1.0):
    while True:
        yield sim.timeout(every)
        log.append(sim.now)


def test_controller_advance_parks_at_horizon():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim)
    assert controller.advance(5.0) == 5.0
    assert sim.now == 5.0
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_controller_pause_blocks_advance():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim)
    controller.pause()
    assert controller.state == "paused"
    assert controller.advance(5.0) == 0.0
    assert log == []
    controller.resume()
    controller.advance(2.0)
    assert log == [1.0, 2.0]


def test_controller_toggle():
    controller = SimulationController(Simulator())
    assert controller.toggle() is True
    assert controller.paused
    assert controller.toggle() is False


def test_step_event_works_while_paused():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim)
    controller.pause()
    assert controller.step_event(3) == 3
    assert controller.events_stepped == 3


def test_step_event_stops_on_empty_queue():
    sim = Simulator()

    def once():
        yield sim.timeout(1.0)

    sim.process(once())
    controller = SimulationController(sim)
    ran = controller.step_event(100)
    assert ran < 100  # queue drained before the count


def test_step_time_advances_exactly_even_paused():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim)
    controller.pause()
    assert controller.step_time(2.5) == 2.5
    assert log == [1.0, 2.0]
    with pytest.raises(SimulationError):
        controller.step_time(-1.0)


def test_breakpoint_pauses_exactly_there():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim)
    controller.add_breakpoint(3.0)
    controller.add_breakpoint(7.0)
    assert controller.advance(10.0) == 3.0
    assert controller.paused
    assert controller.last_breakpoint == 3.0
    assert controller.breakpoints == (7.0,)
    controller.resume()
    assert controller.advance(10.0) == 7.0
    controller.resume()
    assert controller.advance(10.0) == 10.0


def test_breakpoint_must_be_in_future():
    sim = Simulator()
    controller = SimulationController(sim)
    with pytest.raises(SimulationError):
        controller.add_breakpoint(0.0)
    controller.add_breakpoint(5.0)
    controller.clear_breakpoints()
    assert controller.breakpoints == ()


def test_tick_respects_pacing_budget():
    sim = Simulator()
    log = []
    sim.process(ticker(sim, log))
    controller = SimulationController(sim, pacing=10.0)
    advanced = controller.tick(0.5)  # 10 virtual s per wall s * 0.5 s
    assert advanced == 5.0
    assert sim.now == 5.0


def test_tick_without_pacing_needs_horizon():
    controller = SimulationController(Simulator())
    with pytest.raises(SimulationError):
        controller.tick(1.0)
    assert controller.tick(1.0, horizon=2.0) == 2.0


def test_tick_while_paused_is_noop():
    controller = SimulationController(Simulator(), pacing=10.0)
    controller.pause()
    assert controller.tick(1.0) == 0.0


def test_controller_replays_byte_identically():
    """A campus driven in controller slices equals one driven directly."""
    def summary(drive):
        campus = small_campus(clusters=2, workstations_per_cluster=2)
        users = provision_campus(campus, hot_files=4, cold_files=4,
                                 shared_files=4, binary_files=4)
        launch_campus_day(campus, users, 300.0)
        drive(campus)
        return (campus.sim.now, campus.sim._sequence,
                [user.actions for user in users],
                campus.mean_hit_ratio())

    def direct(campus):
        campus.sim.run(until=300.0)

    def controlled(campus):
        controller = SimulationController(campus.sim)
        controller.add_breakpoint(137.0)
        while campus.sim.now < 300.0:
            controller.resume()
            controller.advance(min(campus.sim.now + 50.0, 300.0))

    assert summary(direct) == summary(controlled)


# ======================================================================
# RollingAggregator: windows, deltas, top-K
# ======================================================================


def sampled_campus():
    campus = small_campus(clusters=1, workstations_per_cluster=2)
    aggregator = RollingAggregator(campus.metrics)
    session = alice_session(campus)
    return campus, aggregator, session


def test_window_counters_are_deltas():
    campus, aggregator, session = sampled_campus()
    aggregator.sample(campus.sim.now)
    run(campus, session.write_file("/vice/usr/alice/f", b"x" * 100))
    run(campus, session.read_file("/vice/usr/alice/f"))
    window = aggregator.sample(campus.sim.now)
    assert window["counters"]["opens"] >= 2
    assert window["counters"]["stores"] >= 1
    opens_so_far = window["counters"]["opens"]
    # No traffic between samples -> zero deltas.
    window2 = aggregator.sample(campus.sim.now + 10.0)
    assert window2["counters"]["opens"] == 0
    assert window2["dt"] == 10.0
    # More traffic counts only the new operations.
    run(campus, session.read_file("/vice/usr/alice/f"))
    window3 = aggregator.sample(campus.sim.now + 1.0)
    assert 0 < window3["counters"]["opens"] <= opens_so_far


def test_window_rates_and_events():
    campus, aggregator, session = sampled_campus()
    aggregator.sample(campus.sim.now)
    run(campus, session.write_file("/vice/usr/alice/f", b"data"))
    window = aggregator.sample(campus.sim.now + 4.0)
    assert window["rates"]["stores"] == pytest.approx(
        window["counters"]["stores"] / window["dt"])
    assert window["events"] > 0
    assert window["events_per_s"] > 0


def test_windowed_hit_ratio():
    campus, aggregator, session = sampled_campus()
    run(campus, session.write_file("/vice/usr/alice/f", b"data"))
    run(campus, session.read_file("/vice/usr/alice/f"))
    aggregator.sample(campus.sim.now)
    # All re-reads from here on hit the cache: windowed ratio is 1.0 even
    # though the boot-to-date ratio includes the initial misses.
    for _ in range(5):
        run(campus, session.read_file("/vice/usr/alice/f"))
    window = aggregator.sample(campus.sim.now)
    assert window["hit_ratio"] == 1.0


def test_windowed_latency_percentiles():
    campus, aggregator, session = sampled_campus()
    run(campus, session.write_file("/vice/usr/alice/f", b"data"))
    window = aggregator.sample(campus.sim.now)
    assert window["latency"]["count"] > 0
    assert window["latency"]["p99"] >= window["latency"]["p50"] > 0
    # A quiet window has no fresh samples.
    window2 = aggregator.sample(campus.sim.now + 1.0)
    assert window2["latency"]["count"] == 0


def test_counter_reset_clamps_to_zero():
    campus, aggregator, session = sampled_campus()
    run(campus, session.write_file("/vice/usr/alice/f", b"data"))
    aggregator.sample(campus.sim.now)
    campus.reset_counters()
    window = aggregator.sample(campus.sim.now + 1.0)
    assert all(value >= 0 for value in window["counters"].values())


def test_dead_provider_is_skipped():
    campus, aggregator, session = sampled_campus()

    def broken():
        raise RuntimeError("component crashed")

    campus.metrics.counter("venus.zombie.opens", broken)
    window = aggregator.sample(campus.sim.now)  # must not raise
    assert "counters" in window


def test_top_k_volumes_and_users():
    campus, aggregator, session = sampled_campus()
    run(campus, session.write_file("/vice/usr/alice/f", b"y" * 500))
    for _ in range(3):
        run(campus, session.read_file("/vice/usr/alice/f"))
    aggregator.sample(campus.sim.now)
    top_users = aggregator.top("users", 3)
    assert top_users and top_users[0][0] == "alice"
    top_volumes = aggregator.top("volumes", 3)
    assert any("alice" in name or "usr" in name for name, _ in top_volumes)


def test_series_and_peak():
    campus, aggregator, session = sampled_campus()
    aggregator.sample(campus.sim.now)
    run(campus, session.write_file("/vice/usr/alice/f", b"data"))
    aggregator.sample(campus.sim.now + 1.0)
    series = aggregator.series("stores")
    assert len(series) == 2
    assert aggregator.peak("stores") == max(series)
    assert len(aggregator.series("hit_ratio", n=1)) == 1


def test_windows_ring_buffer_is_bounded():
    campus = small_campus()
    aggregator = RollingAggregator(campus.metrics, maxlen=4)
    for i in range(10):
        aggregator.sample(float(i))
    assert len(aggregator.windows) == 4
    assert aggregator.samples_taken == 10
    assert aggregator.last["t"] == 9.0


def test_overhead_is_tracked():
    campus = small_campus()
    aggregator = RollingAggregator(campus.metrics)
    window = aggregator.sample(0.0)
    assert window["overhead_us"] > 0
    assert len(aggregator.overhead_us) == 1


def test_install_sampler_samples_periodically():
    campus = small_campus()
    aggregator = RollingAggregator(campus.metrics)
    aggregator.install_sampler(campus.sim, 10.0)
    campus.sim.run(until=35.0)
    assert len(aggregator.windows) == 3
    assert [window["t"] for window in aggregator.windows] == [10.0, 20.0, 30.0]
    with pytest.raises(SimulationError):
        aggregator.install_sampler(campus.sim, 10.0)
    with pytest.raises(SimulationError):
        RollingAggregator(campus.metrics).install_sampler(campus.sim, 0.0)


def test_classification_refreshes_on_new_instruments():
    campus = small_campus()
    aggregator = RollingAggregator(campus.metrics)
    aggregator.sample(0.0)
    state = {"n": 0}
    campus.metrics.counter("venus.late.opens", lambda: state["n"])
    state["n"] = 5
    window = aggregator.sample(1.0)
    assert window["counters"]["opens"] >= 5


def test_counter_reader_reads_growth_since_its_baseline():
    campus = small_campus()
    metrics = campus.metrics
    state = {"n": 4, "labels": {"a": 2, "b": 1}}
    metrics.counter("test.plain", lambda: state["n"])
    metrics.counter("test.labelled", lambda: dict(state["labels"]))
    metrics.gauge("test.gauge", 7)

    def broken():
        raise RuntimeError("component crashed")

    metrics.counter("test.dead", broken)
    reader = CounterReader(metrics)
    assert reader.counts("test.plain") == {"": 4}
    assert reader.counts("test.dead") == reader.counts("test.gauge") == {}
    assert reader.counts("test.missing") == {}
    reader.rebase(["test.plain", "test.labelled"])
    state["n"], state["labels"] = 9, {"a": 5, "b": 0}
    # A peek leaves the baseline where it was; a read moves it.
    assert reader.total("test.plain", advance=False) == 5
    assert reader.labelled("test.labelled", advance=False) == {"a": 3}
    assert reader.total("test.plain") == 5
    assert reader.total("test.plain") == 0
    # Shrinking (a counter reset underneath) reads as no growth.
    assert reader.summed(["test.labelled"], key=str.upper) == {"A": 3}
    state["labels"] = {"a": 1, "b": 4}
    assert reader.labelled("test.labelled") == {"b": 4}


# SHA-256 of every window of ``fingerprinted_day`` minus ``overhead_us``
# (the one wall-clock field), recorded while the aggregator still read
# counters through its own type-guessing helpers.  The day crosses the
# warm-up counter reset and a server crash, so the clamped deltas are in
# it.  A change meant to move a window re-records this and says why.
_WINDOW_FINGERPRINT = (13, "e09de77e2671a4074a03f83ce97cc9a0a945f02ae60dcff827e7709057b4d32c")


def fingerprinted_day():
    """A seeded 2 x 4 revised day under ``server-crash``, sampled every 60 s."""
    from repro import ITCSystem, SystemConfig
    from repro.faults import PRESETS
    from repro.workload import run_campus_day

    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=2, workstations_per_cluster=4, seed=3,
        functional_payload_crypto=False,
        fault_plan=PRESETS["server-crash"](seed=3)))
    aggregator = RollingAggregator(campus.metrics)
    aggregator.install_sampler(campus.sim, 60.0)
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    run_campus_day(campus, users, duration=600.0, warmup=120.0)
    return [{key: value for key, value in window.items() if key != "overhead_us"}
            for window in aggregator.windows]


def test_window_fingerprint_pinned():
    import hashlib

    windows = fingerprinted_day()
    blob = json.dumps(windows, sort_keys=True).encode()
    assert (len(windows), hashlib.sha256(blob).hexdigest()) == _WINDOW_FINGERPRINT


# ======================================================================
# OpsEventStream: structured events, JSONL, derived storms
# ======================================================================


def test_emit_and_tail():
    sim = Simulator()
    stream = OpsEventStream(sim)
    sim.run(until=5.0)
    record = stream.emit("fault", kind="server_crash", target="server0")
    assert record["t"] == 5.0
    assert stream.tail(1) == [record]
    assert stream.emitted == 1


def test_jsonl_file_stream(tmp_path):
    sim = Simulator()
    path = tmp_path / "events.jsonl"
    stream = OpsEventStream(sim, path=str(path))
    stream.emit("fault", target="server0")
    stream.emit("recovery", target="server0")
    stream.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["event"] for line in lines] == ["fault", "recovery"]
    assert all("t" in line for line in lines)


def test_buffer_is_bounded():
    stream = OpsEventStream(Simulator(), maxlen=3)
    for i in range(10):
        stream.emit("soak", index=i)
    assert len(stream.events) == 3
    assert stream.emitted == 10


def test_attach_availability_forwards_fault_events():
    campus = small_campus(clusters=1, workstations_per_cluster=1)
    campus.install_faults(FaultPlan(
        name="one-crash", faults=(
            Fault("server_crash", "server0", start=5.0, duration=10.0),
        ),
    ))
    stream = OpsEventStream(campus.sim)
    stream.attach_availability(campus.availability)
    campus.sim.run(until=60.0)
    kinds = [record["event"] for record in stream.events]
    assert "fault" in kinds
    assert "recovery" in kinds
    assert "salvage" in kinds
    fault = next(r for r in stream.events if r["event"] == "fault")
    assert fault["target"] == "server0"
    assert fault["kind"] == "server_crash"


def test_attach_availability_forwards_outages():
    campus = small_campus(clusters=1, workstations_per_cluster=1)
    campus.ensure_fault_controls()
    stream = OpsEventStream(campus.sim)
    stream.attach_availability(campus.availability)
    tracker = campus.availability
    tracker.record_op("alice", False, now=10.0)
    tracker.record_op("alice", False, now=11.0)
    tracker.record_op("alice", True, now=14.0)
    events = [record["event"] for record in stream.events]
    assert events == ["outage_begin", "outage_end"]
    end = stream.events[-1]
    assert end["duration"] == 4.0
    assert end["failures"] == 2


def test_scan_detects_break_storm_and_cache_pressure():
    stream = OpsEventStream(Simulator(), break_storm_rate=1.0,
                            eviction_rate=1.0)
    quiet = {"t": 10.0, "rates": {"callback_breaks": 0.5, "evictions": 0.5}}
    assert stream.scan(quiet) == []
    stormy = {"t": 20.0, "rates": {"callback_breaks": 5.0, "evictions": 3.0}}
    derived = stream.scan(stormy)
    assert [record["event"] for record in derived] == [
        "callback_break_storm", "cache_pressure"]
    assert derived[0]["t"] == 20.0
