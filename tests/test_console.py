"""Tests for the live ops console model (repro.console), headless."""

import json

import pytest

from tests.helpers import small_campus

from repro.analysis.report import utilization_bar
from repro.console import ConsoleModel, KEY_HELP, run_headless
from repro.obs.live import RollingAggregator, SimulationController
from repro.workload import launch_campus_day, provision_campus


def console_campus(clusters=2, workstations_per_cluster=2, minutes=30.0):
    """A small campus with running users and a console model over it."""
    campus = small_campus(clusters=clusters,
                          workstations_per_cluster=workstations_per_cluster)
    users = provision_campus(campus, hot_files=4, cold_files=4,
                             shared_files=4, binary_files=4)
    # As ``day --console`` does: fault controls before the launch (so users
    # report outcomes), one window clock whose windows the model renders.
    campus.ensure_fault_controls()
    aggregator = RollingAggregator(campus.metrics)
    aggregator.install_sampler(campus.sim, 10.0, campus.ops.scan)
    model = ConsoleModel(campus, aggregator, SimulationController(campus.sim))
    launch_campus_day(campus, users, minutes * 60.0)
    return campus, model, users


# ======================================================================
# rendering and refresh
# ======================================================================


def test_utilization_bar():
    assert utilization_bar(0.0) == "[..........]"
    assert utilization_bar(1.0) == "[##########]"
    assert utilization_bar(0.5, width=4) == "[##..]"
    assert utilization_bar(7.5) == "[##########]"  # clamped
    assert utilization_bar(-1.0) == "[..........]"


def test_render_lines_shape():
    campus, model, _users = console_campus()
    model.controller.advance(60.0)
    lines = model.render_lines(width=100)
    frame = "\n".join(lines)
    assert "ITC campus" in frame
    assert "RUNNING" in frame
    assert "ALL CLEAR" in frame
    assert "server0" in frame
    assert "cluster0" in frame
    assert KEY_HELP in lines[-1]
    assert all(len(line) <= 100 for line in lines)


def test_refresh_samples_due_windows():
    campus, model, users = console_campus()
    assert model.aggregator.last is None  # nothing due yet
    model.controller.advance(25.0)
    # The window clock sampled t=10 and t=20; the frame shows the last.
    assert [window["t"] for window in model.aggregator.windows] == [10.0, 20.0]
    assert model.aggregator.last["dt"] == 10.0
    model.controller.pause()
    model.handle_key(">")  # stepping while paused still ticks the clock
    assert model.aggregator.last["t"] == 30.0
    assert all(user.tracker is campus.availability for user in users)


def test_selection_and_key_dispatch():
    campus, model, _users = console_campus()
    assert model.selected_target == ("server", "server0")
    model.handle_key("\t")
    assert model.selected_target == ("server", "server1")
    model.handle_key("2")
    assert model.selected_target == ("cluster", "cluster0")
    model.handle_key("9")  # out of range: ignored
    assert model.selected_target == ("cluster", "cluster0")
    model.handle_key("q")
    assert model.quit_requested


def test_pause_resume_and_stepping():
    campus, model, _users = console_campus()
    model.handle_key(" ")
    assert model.controller.paused
    before = campus.sim.now
    model.controller.advance(before + 100.0)
    assert campus.sim.now == before
    model.handle_key(">")  # step_time works while paused
    assert campus.sim.now == before + 10.0
    model.handle_key(".")
    assert model.controller.events_stepped >= 1
    model.handle_key(" ")
    assert not model.controller.paused
    assert any(record["event"] == "operator" for record in campus.ops.events)


def test_pacing_keys():
    campus, model, _users = console_campus()
    model.controller.pacing = 60.0
    model.handle_key("+")
    assert model.controller.pacing == 120.0
    model.handle_key("-")
    assert model.controller.pacing == 60.0


# ======================================================================
# fault injection from the console
# ======================================================================


def test_crash_selected_server_reaches_banner_and_stream(tmp_path):
    """The acceptance path: pause, inject a crash, resume — the outage
    shows up in the banner AND in the ops-event JSONL."""
    path = tmp_path / "ops.jsonl"
    campus, model, _users = console_campus()
    campus.ops.attach_sink(str(path))

    model.controller.advance(30.0)
    model.handle_key(" ")          # pause (operator takes a look)
    assert model.controller.paused
    model.select(0)
    model.handle_key("c")          # crash server0
    model.handle_key(" ")          # resume
    model.controller.advance(60.0)  # fault window opens at ~t=30

    assert not campus.server("server0").host.up
    assert "server_crash:server0" in model.banner()
    frame = "\n".join(model.render_lines())
    assert "DOWN" in frame
    assert "ACTIVE FAULTS" in frame

    model.controller.advance(600.0)  # ride out the outage; users retry and
    assert campus.server("server0").host.up  # close their episodes
    assert model.banner() == "ALL CLEAR"

    campus.ops.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records == json.loads(json.dumps(campus.ops.events))
    events = [record["event"] for record in records]
    operator = next(r for r in records if r["event"] == "operator"
                    and r["action"] == "crash_server")
    assert operator["target"] == "server0"
    assert "fault" in events
    assert "recovery" in events
    assert "salvage" in events


def test_crash_requires_server_selection():
    campus, model, _users = console_campus()
    model.select(2)  # a cluster segment
    model.handle_key("c")
    assert "press p to partition" in model.status
    assert not model.scheduler.active


def test_crash_twice_is_rejected():
    campus, model, _users = console_campus()
    model.select(0)
    model.crash_selected()
    campus.sim.run(until=campus.sim.now + 1.0)
    model.crash_selected()
    assert "already down" in model.status


def test_partition_selected_cluster():
    campus, model, _users = console_campus()
    model.select(3)  # cluster1
    model.handle_key("p")
    campus.sim.run(until=campus.sim.now + 1.0)
    assert "cluster1" in campus.network.partitioned
    assert "partition:cluster1" in model.banner()
    frame = "\n".join(model.render_lines())
    assert "CUT" in frame
    model.partition_selected()
    assert "already partitioned" in model.status
    model.select(0)
    model.handle_key("p")
    assert "press c to crash" in model.status


def test_start_chaos_once():
    campus, model, _users = console_campus()
    model.handle_key("x")
    assert model.status == "chaos started"
    assert model.scheduler.chaos_running
    model.handle_key("x")
    assert model.status == "chaos already running"
    actions = [record.get("action") for record in campus.ops.events]
    assert actions.count("start_chaos") == 1


# ======================================================================
# headless driver
# ======================================================================


def test_run_headless_advances_and_prints(capsys):
    campus, model, _users = console_campus()
    assert run_headless(model, frames=3, frame_virtual_seconds=10.0) == 0
    assert campus.sim.now == 30.0
    out = capsys.readouterr().out
    assert "ITC campus" in out


def test_run_headless_stops_on_quit(capsys):
    campus, model, _users = console_campus()
    model.quit_requested = True
    run_headless(model, frames=50, frame_virtual_seconds=10.0)
    assert campus.sim.now == 0.0
