"""Unit tests for repro.faults: plans, injectors, scheduler, tracker.

The subsystem's contract is determinism: the same (config seed, fault
plan, workload) triple must replay the same campus byte-for-byte, and a
campus with no plan installed must behave exactly as if the subsystem did
not exist (zero-cost-when-off).
"""

import json

import pytest

from repro.errors import DiskError, InvalidArgument
from repro.faults import (
    ChaosConfig,
    Fault,
    FaultPlan,
    PRESETS,
    chaos_plan,
    clean_plan,
    flaky_campus_plan,
    lossy_backbone_plan,
    server_crash_plan,
)
from repro.net.link import LinkFaults
from repro.obs.availability import AvailabilityTracker
from repro.obs.live import OpsEventStream
from repro.sim import Simulator
from repro.sim.rand import WorkloadRandom
from repro.storage.disk import Disk, DiskFaults
from repro.workload import provision_campus, run_campus_day
from tests.helpers import small_campus


# -- plan validation ---------------------------------------------------------


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor_strike", "server0", start=0.0, duration=1.0)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            Fault("server_crash", "", start=0.0, duration=1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Fault("server_crash", "server0", start=-1.0, duration=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Fault("server_crash", "server0", start=0.0, duration=0.0)

    @pytest.mark.parametrize("field", ["loss", "corrupt", "duplicate", "error_rate"])
    def test_rates_outside_unit_interval_rejected(self, field):
        with pytest.raises(ValueError, match="outside"):
            Fault("link", "backbone", start=0.0, duration=1.0, **{field: 1.5})

    def test_nonpositive_factors_rejected(self):
        with pytest.raises(ValueError, match="latency_factor"):
            Fault("disk", "server0", start=0.0, duration=1.0, latency_factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            Fault("slow_cpu", "server0", start=0.0, duration=1.0, factor=-1.0)

    def test_end_property(self):
        fault = Fault("server_crash", "server0", start=10.0, duration=5.0)
        assert fault.end == 15.0


class TestPlanValidation:
    def test_overlapping_windows_same_target_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultPlan(faults=(
                Fault("server_crash", "server0", start=0.0, duration=10.0),
                Fault("server_crash", "server0", start=5.0, duration=10.0),
            ))

    def test_adjacent_windows_same_target_allowed(self):
        plan = FaultPlan(faults=(
            Fault("server_crash", "server0", start=0.0, duration=10.0),
            Fault("server_crash", "server0", start=10.0, duration=10.0),
        ))
        assert len(plan.faults) == 2

    def test_overlapping_windows_different_targets_allowed(self):
        plan = FaultPlan(faults=(
            Fault("server_crash", "server0", start=0.0, duration=10.0),
            Fault("server_crash", "server1", start=5.0, duration=10.0),
        ))
        assert len(plan.faults) == 2

    def test_overlapping_kinds_on_same_target_allowed(self):
        # A slow CPU and a sick disk on the same host may coexist.
        plan = FaultPlan(faults=(
            Fault("slow_cpu", "server0", start=0.0, duration=10.0, factor=0.5),
            Fault("disk", "server0", start=5.0, duration=10.0, error_rate=0.1),
        ))
        assert len(plan.faults) == 2

    def test_list_of_faults_coerced_to_tuple(self):
        plan = FaultPlan(faults=[
            Fault("server_crash", "server0", start=0.0, duration=1.0),
        ])
        assert isinstance(plan.faults, tuple)

    def test_is_empty(self):
        assert clean_plan().is_empty
        assert not server_crash_plan().is_empty
        assert not chaos_plan().is_empty

    def test_with_revalidates(self):
        plan = server_crash_plan()
        renamed = plan.with_(name="other")
        assert renamed.name == "other" and renamed.faults == plan.faults

    def test_chaos_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ChaosConfig(mean_interval=0.0)
        with pytest.raises(ValueError, match="unknown chaos fault kind"):
            ChaosConfig(kinds=("gremlins",))
        with pytest.raises(ValueError, match="at least one"):
            ChaosConfig(kinds=())


class TestPlanRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip_through_json(self, name):
        plan = PRESETS[name](seed=7)
        wire = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(wire) == plan

    def test_from_dict_validates(self):
        record = server_crash_plan().to_dict()
        record["faults"][0]["duration"] = -1.0
        with pytest.raises(ValueError):
            FaultPlan.from_dict(record)
        # A record of the wrong shape is refused by name, not a TypeError.
        del record["faults"][0]["target"]
        for malformed in (record, [record], {"faults": 3},
                          {"chaos": {"no_such_knob": 1}}):
            with pytest.raises(InvalidArgument, match="malformed fault plan"):
                FaultPlan.from_dict(malformed)

    def test_preset_factories_accept_seed(self):
        for factory in PRESETS.values():
            assert factory(seed=42).seed == 42


# -- injectors ---------------------------------------------------------------


class TestLinkFaults:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="loss"):
            LinkFaults(WorkloadRandom(1), loss=2.0)

    def test_zero_rates_never_judge_a_fate(self):
        faults = LinkFaults(WorkloadRandom(1))
        assert all(faults.judge() == "ok" for _ in range(50))
        assert faults.stats == {"link_lost": 0, "link_corrupted": 0,
                                "link_duplicated": 0}

    def test_judgements_deterministic_per_seed(self):
        def sequence():
            faults = LinkFaults(WorkloadRandom(9), loss=0.2, corrupt=0.2,
                                duplicate=0.2)
            return [faults.judge() for _ in range(200)]

        fates = [sequence(), sequence()]
        assert fates[0] == fates[1]
        assert {"lost", "corrupted", "duplicated", "ok"} >= set(fates[0])
        assert len(set(fates[0])) > 1

    def test_stats_shared_and_counted(self):
        stats = {"link_lost": 0, "link_corrupted": 0, "link_duplicated": 0}
        faults = LinkFaults(WorkloadRandom(3), loss=1.0, stats=stats)
        assert faults.judge() == "lost"
        assert stats["link_lost"] == 1


class TestDiskFaults:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="error rate"):
            DiskFaults(WorkloadRandom(1), error_rate=-0.1)
        with pytest.raises(ValueError, match="latency_factor"):
            DiskFaults(WorkloadRandom(1), latency_factor=0.0)

    def test_certain_error_raises_and_pays_positioning(self):
        sim = Simulator()
        disk = Disk(sim, avg_seek=0.02, avg_rotation=0.01,
                    transfer_rate_bps=1_000_000)
        disk.faults = DiskFaults(WorkloadRandom(1), error_rate=1.0)

        def proc():
            with pytest.raises(DiskError):
                yield from disk.access(500_000)
            return sim.now

        elapsed = sim.run_until_complete(sim.process(proc()))
        # The arm moved (seek + rotation) but no transfer happened.
        assert elapsed == pytest.approx(0.03)
        assert disk.faults.stats["disk_errors"] == 1

    def test_latency_factor_multiplies_service_time(self):
        sim = Simulator()
        disk = Disk(sim, avg_seek=0.02, avg_rotation=0.01,
                    transfer_rate_bps=1_000_000)
        disk.faults = DiskFaults(WorkloadRandom(1), latency_factor=3.0)

        def proc():
            yield from disk.access(1_000_000)
            return sim.now

        elapsed = sim.run_until_complete(sim.process(proc()))
        assert elapsed == pytest.approx(3.0 * (0.03 + 1.0))

    def test_zero_rate_draws_nothing(self):
        faults = DiskFaults(WorkloadRandom(5), error_rate=0.0)
        before = faults.rng.random()
        faults2 = DiskFaults(WorkloadRandom(5), error_rate=0.0)
        assert not faults2.fails()
        # fails() with a zero rate must not consume the stream.
        assert faults2.rng.random() == before


# -- scheduler ---------------------------------------------------------------


def _campus_with_plan(plan, **overrides):
    return small_campus(clusters=2, workstations_per_cluster=1,
                        fault_plan=plan, **overrides)


class TestSchedulerWindows:
    def test_server_crash_window_applies_reverts_and_salvages(self):
        plan = server_crash_plan(server="server0", at=10.0, outage=20.0)
        campus = _campus_with_plan(plan)
        host = campus.server("server0").host
        tracker = campus.availability

        campus.sim.run(until=15.0)
        assert not host.up
        assert ("server_crash", "server0") in campus.fault_scheduler.active
        campus.sim.run(until=60.0)
        assert host.up
        assert not campus.fault_scheduler.active
        assert tracker.counters["faults_injected"] == 1
        assert tracker.counters["recoveries"] == 1
        assert tracker.counters["salvages"] == 1

    def test_link_window_installs_and_uninstalls_injector(self):
        plan = lossy_backbone_plan(start=10.0, duration=20.0)
        campus = _campus_with_plan(plan)
        segment = campus.network.segments["backbone"]

        assert segment.faults is None
        campus.sim.run(until=15.0)
        assert segment.faults is not None
        assert segment.faults.loss == pytest.approx(0.03)
        campus.sim.run(until=60.0)
        assert segment.faults is None
        assert campus.network._faulty_segments == 0

    def test_disk_and_slow_cpu_windows(self):
        plan = FaultPlan(name="hw", faults=(
            Fault("disk", "server1", start=5.0, duration=10.0,
                  error_rate=0.5, latency_factor=2.0),
            Fault("slow_cpu", "server1", start=5.0, duration=10.0, factor=0.5),
        ))
        campus = _campus_with_plan(plan)
        host = campus.server("server1").host
        rated = host.rated_cpu_speed

        campus.sim.run(until=8.0)
        assert host.disk.faults is not None
        assert host.cpu_speed == pytest.approx(rated * 0.5)
        campus.sim.run(until=30.0)
        assert host.disk.faults is None
        assert host.cpu_speed == rated

    def test_partition_window_cuts_and_heals(self):
        plan = FaultPlan(name="split", faults=(
            Fault("partition", "cluster1", start=5.0, duration=10.0),
        ))
        campus = _campus_with_plan(plan)
        campus.sim.run(until=8.0)
        assert "cluster1" in campus.network.partitioned
        campus.sim.run(until=30.0)
        assert not campus.network.partitioned

    def test_apply_skips_collisions(self):
        campus = _campus_with_plan(clean_plan())
        scheduler = campus.fault_scheduler
        fault = Fault("server_crash", "server0", start=0.0, duration=1.0)
        assert scheduler._apply(fault)
        # Same (kind, target) again: skipped, not stacked.
        assert not scheduler._apply(fault)
        campus.sim.run_until_complete(
            campus.sim.process(scheduler._revert(fault))
        )
        assert campus.server("server0").host.up

    def test_install_twice_rejected(self):
        campus = _campus_with_plan(clean_plan())
        with pytest.raises(InvalidArgument, match="already installed"):
            campus.install_faults(clean_plan())

    def test_chaos_injects_and_reverts_deterministically(self):
        def events():
            plan = chaos_plan(seed=3, mean_interval=30.0, mean_outage=10.0,
                              end=600.0)
            campus = _campus_with_plan(plan)
            campus.sim.run(until=1200.0)
            tracker = campus.availability
            assert tracker.counters["faults_injected"] > 0
            # Every injected fault was reverted (serial chaos loop).
            assert (tracker.counters["recoveries"]
                    == tracker.counters["faults_injected"])
            assert not campus.fault_scheduler.active
            return tracker.timeline()

        first, second = events(), events()
        assert first == second


# -- availability tracker ----------------------------------------------------


def _tracker():
    sim = Simulator()
    return AvailabilityTracker(sim, OpsEventStream(sim))


class TestAvailabilityTracker:
    def test_idle_tracker_reports_full_availability(self):
        tracker = _tracker()
        assert tracker.availability == 1.0
        summary = tracker.summary()
        assert summary["attempts"] == 0 and summary["outages"] == 0

    def test_episode_opens_on_failure_and_closes_on_success(self):
        tracker = _tracker()
        tracker.record_op("alice", False, now=10.0)
        tracker.record_op("alice", False, now=20.0)
        assert tracker.summary()["open_outages"] == 1
        tracker.record_op("alice", True, now=30.0)
        assert len(tracker.episodes) == 1
        episode = tracker.episodes[0]
        assert (episode.start, episode.end, episode.failures) == (10.0, 30.0, 2)
        assert tracker.mttr.mean == pytest.approx(20.0)
        assert tracker.summary()["open_outages"] == 0

    def test_episodes_are_per_user(self):
        tracker = _tracker()
        tracker.record_op("alice", False, now=10.0)
        tracker.record_op("bob", True, now=15.0)  # bob is fine
        tracker.record_op("alice", True, now=20.0)
        assert len(tracker.episodes) == 1
        per_user = tracker.per_user()
        assert per_user["alice"]["availability"] == pytest.approx(0.5)
        assert per_user["bob"]["availability"] == 1.0

    def test_ttfs_measured_from_recovery_to_next_success(self):
        tracker = _tracker()
        tracker.record_fault("server_crash", "server0", now=10.0)
        tracker.record_recovery("server_crash", "server0", now=50.0)
        tracker.record_op("alice", True, now=57.5)
        assert len(tracker.ttfs) == 1
        assert tracker.ttfs.mean == pytest.approx(7.5)
        # Only the first success after a recovery stops the clock.
        tracker.record_op("alice", True, now=90.0)
        assert len(tracker.ttfs) == 1

    def test_timeline_is_time_ordered_and_honest_about_open_episodes(self):
        tracker = _tracker()
        tracker.record_fault("server_crash", "server0", now=10.0)
        tracker.record_op("alice", False, now=12.0)
        tracker.record_recovery("server_crash", "server0", now=40.0)
        events = tracker.timeline()
        assert [e["t"] for e in events] == sorted(e["t"] for e in events)
        open_events = [e for e in events if e["event"] == "outage"]
        assert len(open_events) == 1 and open_events[0]["end"] is None

    def test_write_timeline(self, tmp_path):
        tracker = _tracker()
        tracker.record_fault("disk", "server0", now=5.0, error_rate=0.1)
        path = tmp_path / "timeline.json"
        assert tracker.write_timeline(str(path)) == 1
        record = json.loads(path.read_text())
        assert record["events"][0]["kind"] == "disk"
        assert record["summary"]["events"]["faults_injected"] == 1


# -- end-to-end determinism and zero-cost-when-off ---------------------------


def _flaky_day(seed=5):
    plan = FaultPlan(name="mini-flaky", seed=seed, faults=(
        Fault("link", "backbone", start=30.0, duration=200.0,
              loss=0.05, corrupt=0.02, duplicate=0.02),
        Fault("server_crash", "server0", start=120.0, duration=60.0),
    ))
    campus = small_campus(clusters=2, workstations_per_cluster=2,
                          fault_plan=plan, functional_payload_crypto=False)
    users = provision_campus(campus, hot_files=4, cold_files=4,
                             shared_files=4, binary_files=3)
    summary = run_campus_day(campus, users, duration=300.0, warmup=60.0)
    return campus, summary


class TestDeterminism:
    def test_identical_runs_replay_byte_identically(self):
        first_campus, first = _flaky_day()
        second_campus, second = _flaky_day()
        assert first_campus.sim.now == second_campus.sim.now
        assert first["availability"] == second["availability"]
        assert (first_campus.availability.timeline()
                == second_campus.availability.timeline())
        assert first_campus.fault_scheduler.stats == second_campus.fault_scheduler.stats

    def test_different_plan_seed_changes_injections(self):
        first_campus, _ = _flaky_day(seed=5)
        second_campus, _ = _flaky_day(seed=6)
        assert (first_campus.fault_scheduler.stats
                != second_campus.fault_scheduler.stats)


class TestZeroCostWhenOff:
    def test_no_plan_leaves_no_trace(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        assert campus.availability is None
        assert campus.fault_scheduler is None
        assert all(segment.faults is None
                   for segment in campus.network.segments.values())
        assert campus.network._faulty_segments == 0
        assert all(server.host.disk.faults is None for server in campus.servers)
        snapshot = campus.metrics.snapshot()
        assert not any(name.startswith(("availability.", "faults."))
                       for name in snapshot)

    def test_installed_clean_plan_registers_instruments(self):
        campus = _campus_with_plan(clean_plan())
        snapshot = campus.metrics.snapshot()
        assert "availability.ratio" in snapshot
        assert "faults.active" in snapshot
