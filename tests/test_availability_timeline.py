"""Outage-timeline JSON export: round-trip, ordering, MTTR arithmetic.

The timeline is the artifact CI uploads (``make redundancy-smoke`` writes
``outage-timeline.json``) and the soak's availability invariants
lean on the same bookkeeping, so its export format gets its own tests:
the JSON must round-trip, events must stay time-ordered, and the MTTR
numbers must stay arithmetically consistent even when fault windows on
*different* targets overlap (same-target overlaps are rejected by
FaultPlan validation up front).
"""

import hashlib
import json
from collections import Counter

import pytest

from repro import ITCSystem, SystemConfig
from repro.faults import PRESETS, Fault, FaultPlan
from repro.obs.availability import AvailabilityTracker
from repro.obs.live import OpsEventStream
from repro.sim import Simulator
from repro.workload import provision_campus, run_campus_day
from tests.helpers import small_campus

# server0 is down 100-160 while cluster1 is partitioned 130-210: the two
# windows overlap (different targets, so the plan validator allows it).
OVERLAP_PLAN = FaultPlan(name="overlap", faults=(
    Fault("server_crash", "server0", start=100.0, duration=60.0),
    Fault("partition", "cluster1", start=130.0, duration=80.0),
))


def overlapping_fault_day():
    campus = small_campus(clusters=2, workstations_per_cluster=2,
                          fault_plan=OVERLAP_PLAN,
                          functional_payload_crypto=False)
    users = provision_campus(campus, hot_files=4, cold_files=4,
                             shared_files=4, binary_files=3)
    run_campus_day(campus, users, duration=400.0, warmup=60.0)
    return campus


@pytest.fixture(scope="module")
def faulted_campus():
    return overlapping_fault_day()


# ======================================================================
# JSON round-trip
# ======================================================================


def test_write_timeline_round_trips(faulted_campus, tmp_path):
    tracker = faulted_campus.availability
    path = tmp_path / "timeline.json"
    count = tracker.write_timeline(str(path))
    record = json.loads(path.read_text())
    assert len(record["events"]) == count == len(tracker.timeline())
    # Parsed events match the in-memory timeline through a JSON cycle.
    assert record["events"] == json.loads(json.dumps(tracker.timeline()))
    assert record["summary"] == json.loads(json.dumps(tracker.summary()))
    assert record["summary"]["attempts"] > 0


def test_timeline_covers_both_faults(faulted_campus):
    events = faulted_campus.availability.timeline()
    faults = [e for e in events if e["event"] == "fault"]
    assert {(e["kind"], e["target"]) for e in faults} == {
        ("server_crash", "server0"), ("partition", "cluster1"),
    }
    recoveries = [e for e in events if e["event"] == "recovery"]
    assert len(recoveries) == len(faults) == 2
    # The crash triggered a salvage pass on restart.
    assert any(e["event"] == "salvage" and e["target"] == "server0"
               for e in events)


# ======================================================================
# ordering
# ======================================================================


def test_timeline_events_are_time_ordered(faulted_campus):
    events = faulted_campus.availability.timeline()
    stamps = [e["t"] for e in events]
    assert stamps == sorted(stamps)
    assert len(events) >= 4  # 2 faults + 2 recoveries at minimum


def test_episodes_are_recorded_in_close_order(faulted_campus):
    episodes = faulted_campus.availability.episodes
    ends = [e.end for e in episodes]
    assert ends == sorted(ends)
    for episode in episodes:
        assert episode.end > episode.start
        assert episode.failures >= 1
    # Outage events in the timeline are keyed by episode *start*.
    outages = [e for e in faulted_campus.availability.timeline()
               if e["event"] == "outage"]
    assert [o["start"] for o in outages] == sorted(o["start"] for o in outages)


# ======================================================================
# MTTR arithmetic under overlapping fault windows
# ======================================================================


def test_mttr_matches_episode_durations(faulted_campus):
    tracker = faulted_campus.availability
    assert len(tracker.episodes) > 0, "overlap plan produced no outages"
    assert len(tracker.mttr) == len(tracker.episodes)
    durations = [e.duration for e in tracker.episodes]
    assert tracker.mttr.mean == pytest.approx(sum(durations) / len(durations))
    assert tracker.mttr.maximum == pytest.approx(max(durations))
    summary = tracker.summary()
    assert summary["mttr"]["count"] == len(durations)
    assert summary["mttr"]["mean"] == pytest.approx(tracker.mttr.mean)
    assert summary["outages"] == len(durations)


def test_episodes_span_only_the_faulted_interval(faulted_campus):
    # No outage can begin before the first fault lands or persist long
    # after the last recovery (users retry within the 400s day).
    for episode in faulted_campus.availability.episodes:
        assert episode.start >= 100.0
        assert episode.end <= 400.0


def test_overlap_merges_into_per_user_episodes():
    """A user failing across both fault windows gets ONE episode whose
    duration spans the union, and exactly one MTTR sample — overlapping
    faults must not double-count repair time."""
    sim = Simulator()
    tracker = AvailabilityTracker(sim, OpsEventStream(sim))
    tracker.record_op("alice", False, now=105.0)   # server0 down
    tracker.record_op("alice", False, now=140.0)   # both faults active
    tracker.record_op("alice", False, now=180.0)   # partition only
    tracker.record_op("alice", True, now=215.0)    # healed
    assert len(tracker.episodes) == 1
    episode = tracker.episodes[0]
    assert (episode.start, episode.end, episode.failures) == (105.0, 215.0, 3)
    assert len(tracker.mttr) == 1
    assert tracker.mttr.mean == pytest.approx(110.0)


def test_same_target_overlap_rejected_by_plan():
    with pytest.raises(ValueError, match="overlap"):
        FaultPlan(name="bad", faults=(
            Fault("server_crash", "server0", start=10.0, duration=50.0),
            Fault("server_crash", "server0", start=30.0, duration=50.0),
        ))


def test_run_is_deterministic():
    first = overlapping_fault_day().availability
    second = overlapping_fault_day().availability
    assert first.timeline() == second.timeline()
    assert first.summary() == second.summary()


# ======================================================================
# the timeline is a rendering of the campus ops log
# ======================================================================


def flaky_day(events_path=None):
    """A seeded 2 x 2 revised day under ``flaky-campus`` (link loss, a
    server crash with its salvage, disk errors, a slow CPU)."""
    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=2, workstations_per_cluster=2, seed=0,
        functional_payload_crypto=False, cache_max_files=200,
        fault_plan=PRESETS["flaky-campus"](seed=0)))
    if events_path is not None:
        campus.ops.attach_sink(str(events_path))
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    run_campus_day(campus, users, duration=1500.0, warmup=120.0)
    campus.ops.close()
    return campus


# (event count, SHA-256 of the written file), recorded while the tracker
# still kept its own copy of every record beside the ops stream's.
# Re-recorded when provisioning began releasing /unix read-only to every
# server: user003 in cluster 1 reads binaries from server1, so one of its
# outages while server0 is down goes (13 -> 12 events).
_FLAKY_TIMELINE = (12, "582c95bce1d87ce290daefeb5ecbb4b9b8ad7effd68b6c880acc8e586f8ee9f9")


def test_flaky_day_timeline_is_byte_identical(tmp_path):
    path = tmp_path / "timeline.json"
    count = flaky_day().availability.write_timeline(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (count, digest) == _FLAKY_TIMELINE


def test_every_tracker_record_is_in_the_log_and_its_sink_once(tmp_path):
    sink = tmp_path / "ops.jsonl"
    campus = flaky_day(sink)
    tracker, log = campus.availability, campus.ops.events
    written = [json.loads(line) for line in sink.read_text().splitlines()]
    assert written == json.loads(json.dumps(log))

    def kinds(records):
        return Counter(record["event"] for record in records)

    expected = {
        "fault": tracker.counters["faults_injected"],
        "recovery": tracker.counters["recoveries"],
        "salvage": tracker.counters["salvages"],
        "outage_begin": len(tracker.episodes) + len(tracker.open_episodes()),
        "outage_end": len(tracker.episodes),
    }
    assert expected["salvage"] and expected["outage_end"]
    assert kinds(log) == kinds(written) == expected
    # The timeline renders those very records, not copies kept beside them.
    rendered = [record for record in tracker.timeline()
                if record["event"] != "outage"]
    assert len(rendered) == 4 + 4 + 1
    assert all(any(record is kept for kept in log) for record in rendered)
