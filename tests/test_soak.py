"""Tests for the soak invariants (repro.soak) and the ``day --invariants``
recipe that runs them: a diurnal day under a chaos plan, every window
checked."""

import json

import pytest

from tests.helpers import small_campus

import repro.soak
from repro.__main__ import main
from repro.faults.plan import ChaosConfig, FaultPlan
from repro.soak import InvariantChecker


def soak_day(directory, *flags, clusters=1, workstations=3, duration=1800,
             warmup=300, window=300, chaos_interval=600.0, chaos_outage=30.0):
    """Run ``day --invariants`` as a soak: diurnal users, chaos arrivals from
    the end of the warm-up; returns the exit status and the summary and
    windows of its record (``--out directory/record``)."""
    plan = directory / "chaos.json"
    plan.write_text(json.dumps(FaultPlan(name="soak-chaos", chaos=ChaosConfig(
        start=warmup, mean_interval=chaos_interval,
        mean_outage=chaos_outage)).to_dict()))
    out = directory / "record"
    status = main(["day", "--mode", "revised", "--clusters", str(clusters),
                   "--workstations", str(workstations), "--duration", str(duration),
                   "--warmup", str(warmup), "--window", str(window), "--diurnal",
                   "--plan-file", str(plan), "--invariants", "--out", str(out), *flags])
    windows = (out / "windows.jsonl").read_text().splitlines()
    return (status, json.loads((out / "summary.json").read_text()),
            [json.loads(line) for line in windows])


# One small soak, shared by the tests that only read its outputs: the run
# is deterministic, so re-running it per test would only burn wall time.
@pytest.fixture(scope="module")
def small_soak(tmp_path_factory):
    return soak_day(tmp_path_factory.mktemp("soak"))


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


@pytest.fixture
def zero_pending_bound(monkeypatch):
    """Sabotage the pending bound (zero), so the first window violates: the
    negative control of the soak gate."""
    monkeypatch.setattr(repro.soak, "PENDING_PER_WORKSTATION", 0)
    monkeypatch.setattr(repro.soak, "PENDING_SLACK", 0)


def checker_for(**bounds):
    campus = small_campus(clusters=1, workstations_per_cluster=2)
    campus.install_faults(FaultPlan(name="no-faults"))
    return campus, InvariantChecker(campus, **bounds)


def test_healthy_window_has_no_violations():
    campus, checker = checker_for()
    # Skip windows still count as checks; run past the warm-up grace.
    for _ in range(3):
        found = checker.check(healthy_window())
    assert found == []


@pytest.mark.usefixtures("zero_pending_bound")
def test_break_invariant_flags_pending():
    campus, checker = checker_for()
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
    slack = checker.reply_cache_slack
    node = campus.servers[0].node
    node._reply_cache["conn"] = {i: b"r" for i in range(slack)}
    assert checker.check(healthy_window()) == []
    node._reply_cache["conn"][slack] = b"r"  # slack + 1 entries
    found = checker.check(healthy_window())
    assert any("at-most-once state leak" in violation for violation in found)


def test_span_bound_is_lifted_for_a_recorder():
    from repro.obs import TraceRecorder
    from tests.helpers import alice_session, run

    campus, checker = checker_for()
    lifted = InvariantChecker(campus, check_spans=False)
    TraceRecorder(campus.sim).attach(campus.sim)
    run(campus, alice_session(campus).write_file("/vice/usr/alice/f", b"x"))
    assert any("trace buffer" in violation
               for violation in checker.check(healthy_window()))
    assert lifted.check(healthy_window()) == []


# ======================================================================
# day --invariants end to end
# ======================================================================


def test_small_soak_is_clean(small_soak):
    status, summary, windows = small_soak
    assert status == 0
    assert summary["violations"] == []
    assert len(windows) == 6  # 1800 s in 300 s windows, from the warm-up's end
    assert windows[0]["t"] == 600.0 and windows[0]["dt"] == 300.0
    assert summary["actions"] > 0
    assert summary["availability"]["attempts"] > 0


def test_soak_report_shape(small_soak):
    _status, summary, _windows = small_soak
    assert {"actions", "failures", "hit_ratio", "call_mix", "busiest_cpu",
            "availability", "violations"} <= set(summary)
    assert summary["availability"]["events"]["faults_injected"] > 0


def test_soak_streams_jsonl(tmp_path):
    status, _summary, windows = soak_day(tmp_path, workstations=2, duration=900,
                                         warmup=120)
    events = tmp_path / "record" / "ops.jsonl"
    assert status == 0
    for window in windows:
        assert {"t", "dt", "counters", "rates", "hit_ratio"} <= set(window)
    records = [json.loads(line) for line in events.read_text().splitlines()]
    kinds = {record["event"] for record in records}
    assert {"fault", "recovery"} <= kinds
    assert all(record["t"] >= 120.0 for record in records if record["event"] == "fault")


@pytest.mark.usefixtures("zero_pending_bound")
def test_soak_negative_gate(tmp_path, capsys):
    """The sabotaged run must report violations (the CI gate can fail)."""
    status, summary, _windows = soak_day(tmp_path, workstations=2, duration=900,
                                         warmup=60)
    assert status == 1
    assert any("kernel.pending" in violation["detail"]
               for violation in summary["violations"])
    assert "INVARIANT VIOLATION" in capsys.readouterr().out


# A 2 x 3 soak of one virtual hour at seed 0, after a 900 s warm-up, under
# 900 s / 60 s chaos, checked every 600 s.  Re-recorded when the soak
# became a ``day`` recipe: the day's campus has 200-file caches and full
# provisioning (the soak driver built 120-file caches over a small one),
# and users run to their last action instead of stopping at the deadline.
# The windows' kernel-event counts (``events`` / ``events_per_s``) are
# host work: a change that cuts kernel events moves only the first digest.
# Re-recorded when provisioning began releasing /unix read-only to both
# servers: binary reads stay in their cluster, so each window's traffic
# and the time to first success after a fault (``ttfs``) moved.
_PINNED_SOAK = {
    "status": 0,
    "actions": 517,
    "failures": 0,
    "windows": 6,
    "availability": {
        "attempts": 517, "successes": 517, "failures": 0, "availability": 1.0,
        "outages": 0, "open_outages": 0, "per_user_worst": 1.0,
        "events": {"faults_injected": 7, "recoveries": 7, "salvages": 1},
        "mttr": {"count": 0, "max": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0},
        "ttfs": {"count": 6, "mean": 7.102300039934884, "p90": 15.295154148922165},
    },
    "window_digest": "947a507dcdcf9d83eae23995e8fe012522203ccfa453dae38690026f0ac64475",
    "digest_without_events": "073ae0531eb45c4c06622893b5041348714976552bad3dfb28bea2e363ad0516",
}


def test_soak_pinned(tmp_path):
    import hashlib

    status, summary, windows = soak_day(
        tmp_path, clusters=2, workstations=3, duration=3600, warmup=900,
        window=600, chaos_interval=900.0, chaos_outage=60.0)

    def digest(drop):
        kept = [{key: value for key, value in window.items() if key not in drop}
                for window in windows]
        return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()

    assert {
        "status": status,
        "actions": summary["actions"],
        "failures": summary["failures"],
        "windows": len(windows),
        "availability": summary["availability"],
        "window_digest": digest({"overhead_us"}),
        "digest_without_events": digest({"overhead_us", "events", "events_per_s"}),
    } == _PINNED_SOAK


def test_soak_is_deterministic(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    _status, one, one_windows = soak_day(first, workstations=2, duration=900,
                                         warmup=120)
    _status, two, two_windows = soak_day(second, workstations=2, duration=900,
                                         warmup=120)
    assert one == two

    def virtual(windows):
        return [{key: value for key, value in window.items() if key != "overhead_us"}
                for window in windows]

    assert virtual(one_windows) == virtual(two_windows)


def test_cli_day_invariants_exit_codes(tmp_path, capsys, monkeypatch):
    day = ["day", "--mode", "revised", "--clusters", "1", "--workstations", "2",
           "--duration", "900", "--warmup", "60", "--window", "300", "--invariants"]
    assert main(day) == 0
    assert "invariants: 3 windows checked, 0 violations" in capsys.readouterr().out
    monkeypatch.setattr(repro.soak, "PENDING_PER_WORKSTATION", 0)
    monkeypatch.setattr(repro.soak, "PENDING_SLACK", 0)
    assert main(day) == 1
    out = capsys.readouterr().out
    assert "INVARIANT VIOLATION" in out and "kernel.pending" in out


def test_soak_driver_is_gone():
    import repro.soak

    assert not hasattr(repro.soak, "SoakConfig")
    assert not hasattr(repro.soak, "run_soak")
