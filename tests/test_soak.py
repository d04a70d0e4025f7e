"""Tests for the continuous soak driver (repro.soak)."""

import json

import pytest

from tests.helpers import small_campus

from repro.soak import InvariantChecker, SoakConfig, run_soak

QUIET = lambda _line: None

# One small soak, shared by the tests that only read the report: the run
# is deterministic, so re-running it per test would only burn wall time.
SMALL = SoakConfig(clusters=1, workstations_per_cluster=3, hours=0.5,
                   window=300.0, warmup=300.0, chaos_mean_interval=600.0,
                   chaos_mean_outage=30.0)


@pytest.fixture(scope="module")
def small_report():
    return run_soak(SMALL, echo=QUIET)


# ======================================================================
# SoakConfig
# ======================================================================


def test_config_derived_fields():
    config = SoakConfig(clusters=4, workstations_per_cluster=50, hours=6.0)
    assert config.workstations == 200
    assert (config.windows, config.duration) == (36, 21600.0)
    # The window clock measures whole windows only.
    assert SoakConfig(hours=0.1, window=600.0).duration == 600.0
    assert SoakConfig(hours=0.6, window=1000.0).windows == 2


# ======================================================================
# InvariantChecker unit behaviour (no full soak needed)
# ======================================================================


def healthy_window(t=1000.0, opens=200.0, hit=0.9, failures=0.0):
    return {
        "t": t, "dt": 300.0,
        "counters": {"opens": opens},
        "hit_ratio": hit,
        "availability": {"failures": failures, "successes": opens,
                         "faults_injected": 0.0, "recoveries": 0.0,
                         "active_faults": 0.0},
    }


def checker_for(**overrides):
    campus = small_campus(clusters=1, workstations_per_cluster=2)
    campus.ensure_fault_controls()
    config = SoakConfig(clusters=1, workstations_per_cluster=2, **overrides)
    return campus, InvariantChecker(campus, config)


def test_healthy_window_has_no_violations():
    campus, checker = checker_for()
    # Skip windows still count as checks; run past the warm-up grace.
    for _ in range(3):
        found = checker.check(healthy_window())
    assert found == []


def test_break_invariant_flags_pending():
    campus, checker = checker_for(break_invariant=True)
    campus.sim.process(iter_timeout(campus.sim))
    found = checker.check(healthy_window())
    assert any("kernel.pending" in violation for violation in found)


def iter_timeout(sim):
    yield sim.timeout(1.0)


def test_hit_ratio_floor_after_skip_windows():
    campus, checker = checker_for(hit_ratio_skip_windows=1)
    assert checker.check(healthy_window(hit=0.1)) == []  # window 1: grace
    found = checker.check(healthy_window(hit=0.1))
    assert any("hit ratio" in violation for violation in found)
    # Quiet windows never trip the floor, whatever the ratio.
    assert checker.check(healthy_window(hit=0.0, opens=3.0)) == []


def test_failures_without_faults_is_flagged():
    campus, checker = checker_for()
    campus.availability.record_op("alice", False, now=10.0)
    found = checker.check(healthy_window(failures=4.0))
    assert any("no fault activity" in violation for violation in found)
    assert any("zero injected faults" in violation for violation in found)


def test_failures_within_fault_grace_are_fine():
    campus, checker = checker_for()
    campus.availability.record_fault("server_crash", "server0", now=900.0)
    window = healthy_window(t=1000.0, failures=4.0)
    window["availability"]["faults_injected"] = 1.0
    for _ in range(3):
        found = checker.check(window)
        window = healthy_window(t=window["t"] + 300.0, failures=2.0)
    # Failures trailing the fault within dt+grace are legitimate.
    assert found == []


def test_trailing_failures_past_grace_are_flagged():
    campus, checker = checker_for(fault_grace=100.0)
    window = healthy_window(t=1000.0, failures=1.0)
    window["availability"]["faults_injected"] = 1.0
    assert checker.check(window) == []
    late = healthy_window(t=3000.0, failures=1.0)
    found = checker.check(late)
    assert any("no fault activity" in violation for violation in found)


def test_mttr_episode_mismatch_is_flagged():
    campus, checker = checker_for()
    tracker = campus.availability
    tracker.record_op("alice", False, now=10.0)
    tracker.record_op("alice", True, now=20.0)
    tracker.mttr.add(1.0)  # corrupt: one extra MTTR sample
    found = checker.check(healthy_window())
    assert any("MTTR" in violation for violation in found)


def test_reply_cache_bound_is_checked():
    campus, checker = checker_for()
    slack = checker.config.reply_cache_slack
    node = campus.servers[0].node
    node._reply_cache["conn"] = {i: b"r" for i in range(slack)}
    assert checker.check(healthy_window()) == []
    node._reply_cache["conn"][slack] = b"r"  # slack + 1 entries
    found = checker.check(healthy_window())
    assert any("at-most-once state leak" in violation for violation in found)


# ======================================================================
# run_soak end to end
# ======================================================================


def test_small_soak_is_clean(small_report):
    assert small_report["violations"] == []
    assert small_report["windows"] == 6
    assert small_report["invariant_checks"] == 6
    assert small_report["events"] > 0
    assert small_report["events_per_second"] > 0
    assert small_report["virtual_actions"] > 0
    assert small_report["snapshot_overhead_us"]["mean"] > 0
    assert small_report["availability"]["attempts"] > 0


def test_soak_report_shape(small_report):
    shape = small_report["shape"]
    assert shape["workstations"] == 3
    assert shape["virtual_hours"] == 0.5
    assert small_report["ops_events_emitted"] >= 2  # start + end marks


def test_soak_streams_jsonl(tmp_path):
    metrics_path = tmp_path / "metrics.jsonl"
    events_path = tmp_path / "events.jsonl"
    config = SoakConfig(clusters=1, workstations_per_cluster=2, hours=0.25,
                        window=300.0, warmup=120.0,
                        metrics_path=str(metrics_path),
                        events_path=str(events_path))
    report = run_soak(config, echo=QUIET)
    windows = [json.loads(line) for line in
               metrics_path.read_text().splitlines()]
    assert len(windows) == report["windows"]
    for window in windows:
        assert {"t", "dt", "counters", "rates", "hit_ratio"} <= set(window)
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    phases = [e.get("phase") for e in events if e["event"] == "soak"]
    assert phases[0] == "start"
    assert phases[-1] == "end"


def test_soak_negative_gate():
    """The sabotaged run must report violations (the CI gate can fail)."""
    config = SoakConfig(clusters=1, workstations_per_cluster=2, hours=0.25,
                        window=300.0, warmup=60.0, break_invariant=True)
    report = run_soak(config, echo=QUIET)
    assert report["violations"]
    assert any("kernel.pending" in violation["detail"]
               for violation in report["violations"])


# A 2 x 3 soak of one virtual hour at seed 0, recorded before the soak
# moved onto the day driver's launch and warm-up and onto the window
# clock.  Every pin below held through that move except the windows'
# kernel-event counts: the clock's wake-ups are kernel events (one per
# window), so ``events`` / ``events_per_s`` grew and the full window digest
# was re-recorded; without those two fields the windows hash as before.
_PINNED_SOAK = {
    "virtual_actions": 525,
    "virtual_failures": 0,
    "faults_injected": 7,
    "windows": 6,
    "availability": {
        "attempts": 525, "successes": 525, "failures": 0, "availability": 1.0,
        "outages": 0, "open_outages": 0, "per_user_worst": 1.0,
        "events": {"faults_injected": 7, "recoveries": 6, "salvages": 1},
        "mttr": {"count": 0, "max": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0},
        "ttfs": {"count": 6, "mean": 6.264864454633482, "p90": 16.964372082019622},
    },
    "window_digest": "000470dd635b79c334081637b94eac4ed1ca2acb24d131b630a8e67d70e14be7",
    "digest_without_events": "c47aa8fd3d2df9bc1dac6072cf4397a2f642ebbe2930d599e774da2219758da6",
}


def test_soak_pinned(tmp_path):
    import hashlib

    metrics_path = tmp_path / "metrics.jsonl"
    report = run_soak(SoakConfig(clusters=2, workstations_per_cluster=3,
                                 hours=1.0, seed=0,
                                 metrics_path=str(metrics_path)), echo=QUIET)
    windows = [json.loads(line) for line in metrics_path.read_text().splitlines()]

    def digest(drop):
        kept = [{key: value for key, value in window.items() if key not in drop}
                for window in windows]
        return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()

    assert {
        "virtual_actions": report["virtual_actions"],
        "virtual_failures": report["virtual_failures"],
        "faults_injected": report["availability"]["events"]["faults_injected"],
        "windows": report["windows"],
        "availability": report["availability"],
        "window_digest": digest({"overhead_us"}),
        "digest_without_events": digest({"overhead_us", "events", "events_per_s"}),
    } == _PINNED_SOAK


def test_soak_is_deterministic():
    config = SoakConfig(clusters=1, workstations_per_cluster=2, hours=0.25,
                        window=300.0, warmup=120.0)
    first = run_soak(config, echo=QUIET)
    second = run_soak(config, echo=QUIET)
    assert first["events"] == second["events"]
    assert first["virtual_actions"] == second["virtual_actions"]
    assert first["availability"]["attempts"] == second["availability"]["attempts"]


def test_cli_soak_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "soak.json"
    code = main(["soak", "--clusters", "1", "--workstations", "2",
                 "--hours", "0.25", "--window", "300", "--warmup", "60",
                 "--json", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["violations"] == []

    code = main(["soak", "--clusters", "1", "--workstations", "2",
                 "--hours", "0.25", "--window", "300", "--warmup", "60",
                 "--break-invariant"])
    assert code == 1
    out = capsys.readouterr().out
    assert "INVARIANT VIOLATION" in out
