"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ITC Distributed File System" in out


def test_mobility_runs(capsys):
    assert main(["mobility"]) == 0
    out = capsys.readouterr().out
    assert "initial penalty" in out
    assert "user mobility" in out


def test_day_small(capsys):
    assert main([
        "day", "--workstations", "3", "--duration", "180", "--warmup", "72",
    ]) == 0
    out = capsys.readouterr().out
    assert "campus day summary" in out
    assert "cache hit ratio" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_help_lists_two_workload_commands_among_six(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--help"])
    assert raised.value.code == 0
    out = capsys.readouterr().out
    assert "{info,andrew,day,mobility,console,soak}" in out


@pytest.mark.parametrize("command", ["status", "chaos", "profile", "trace"])
def test_folded_commands_are_gone(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command])
    assert raised.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


_OBSERVER_FLAGS = ["--trace", "--jsonl", "--check", "--metrics-json",
                   "--window", "--top", "--profile", "--sort"]


@pytest.mark.parametrize("command", ["andrew", "day"])
def test_each_observer_flag_declared_once(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    declared = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("  --")]
    for flag in _OBSERVER_FLAGS:
        assert declared.count(flag) == 1, flag


def test_status_dashboard(capsys):
    assert main(["day", "--mode", "revised", "--clusters", "2",
                 "--workstations", "4", "--duration", "600", "--warmup", "120"]) == 0
    out = capsys.readouterr().out
    assert "campus day summary" in out
    assert "Vice servers" in out
    assert "Campus call mix" in out
    assert "Availability" not in out  # no plan, no availability table


def test_status_campus_shape_flags(capsys):
    assert main([
        "day", "--clusters", "1", "--workstations", "2",
        "--duration", "120", "--warmup", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "1 clusters" in out
    assert "2 workstations" in out
    assert "ws0-1" in out
    assert "ws1-0" not in out  # only one cluster was built


def test_status_trace_and_metrics_outputs(tmp_path, capsys):
    import json

    trace_path = tmp_path / "status.trace.json"
    metrics_path = tmp_path / "status.metrics.json"
    assert main([
        "day", "--clusters", "1", "--workstations", "1",
        "--duration", "60", "--warmup", "10",
        "--trace", str(trace_path), "--metrics-json", str(metrics_path),
    ]) == 0
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    metrics = json.loads(metrics_path.read_text())
    assert any(name.startswith("venus.") for name in metrics)
    assert any(name.startswith("vice.") for name in metrics)


def test_andrew_trace_writes_valid_trace(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    assert main([
        "andrew", "--mode", "revised", "--check",
        "--trace", str(out_path), "--jsonl", str(jsonl_path),
    ]) == 0
    printed = capsys.readouterr().out
    assert "remote penalty" in printed
    assert "coverage OK" in printed
    events = json.loads(out_path.read_text())["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    assert len(jsonl_path.read_text().splitlines()) > 0


def test_profile_andrew(capsys):
    assert main(["andrew", "--mode", "revised", "--profile", "5"]) == 0
    out = capsys.readouterr().out
    assert "hot spots (top 5 by cumulative)" in out
    assert "net.route_cache" in out
    assert "protection.cps_cache" in out


def test_profile_campus(capsys):
    assert main([
        "day", "--mode", "revised",
        "--clusters", "2", "--workstations", "2",
        "--duration", "30", "--warmup", "10",
        "--profile", "5", "--sort", "tottime",
    ]) == 0
    out = capsys.readouterr().out
    assert "hot spots (top 5 by tottime)" in out
    assert "simulation counters" in out
    assert "location.resolve_cache" in out
    # One event queue, so one fixed set of rows in its table.
    table = out[out.index("event queue"):]
    for row in ("events", "queue pushes", "cascade events", "cascade share",
                "dead (uncompacted)", "compactions"):
        assert row in table, row
    for gone in ("buckets", "bucket width", "overflow", "resizes"):
        assert gone not in table, gone


def test_profile_rejects_workers_flag(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["day", "--profile", "5", "--workers", "2"])
    assert raised.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_profile_campus_with_rolling_window(capsys):
    assert main([
        "day", "--clusters", "1", "--workstations", "2",
        "--duration", "60", "--warmup", "10",
        "--profile", "5", "--top", "3", "--window", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "Top volumes" in out
    assert "Top servers" in out
    assert "snapshot overhead" in out


def test_top_sizes_only_the_hotspot_tables(capsys):
    assert main([
        "day", "--clusters", "1", "--workstations", "4",
        "--duration", "300", "--warmup", "30",
        "--profile", "7", "--top", "2", "--window", "60",
    ]) == 0
    out = capsys.readouterr().out
    assert "hot spots (top 7 by cumulative)" in out
    assert "due to restriction <7>" in out
    for field in ("volumes", "users", "servers"):
        table = out[out.index(f"Top {field}"):].split("\n\n")[0]
        assert len(table.splitlines()) == 3 + 2, table  # title, header, rule


def test_chaos_with_rolling_window(capsys):
    assert main([
        "day", "--mode", "revised", "--plan", "server-crash",
        "--clusters", "1", "--workstations", "2",
        "--duration", "600", "--warmup", "60",
        "--window", "120", "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "Availability" in out
    assert "faults: 1 injected" in out
    assert "Top volumes" in out
    assert "snapshot overhead" in out


def test_console_headless(capsys, tmp_path):
    events = tmp_path / "ops.jsonl"
    assert main([
        "console", "--headless",
        "--clusters", "1", "--workstations", "2",
        "--frames", "3", "--events", str(events),
    ]) == 0
    out = capsys.readouterr().out
    assert "ITC campus" in out
    assert "ALL CLEAR" in out
    assert events.exists()


# A campus the flags cannot build is a usage error: one ``error:`` line on
# stderr and exit status 2, never a traceback (and never a silent run with
# the flag ignored).  The same goes for a plan file that cannot be read.
_PLAN_FILES = {
    "not-json.json": "{not json",
    "no-target.json": '{"faults": [{"kind": "server_crash", "start": 1, "duration": 2}]}',
    "bogus-kind.json": '{"faults": [{"kind": "bogus", "target": "server0",'
                       ' "start": 1, "duration": 2}]}',
}


@pytest.fixture
def plan_files(tmp_path, monkeypatch):
    for name, text in _PLAN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.usefixtures("plan_files")
@pytest.mark.parametrize("argv,named", [
    (["day", "--mode", "revised", "--erasure", "4,2", "--clusters", "3"],
     "needs 6 servers, have 3"),
    (["day", "--mode", "revised", "--erasure", "2,1", "--replication", "2",
      "--clusters", "3"], "exclusive"),
    (["day", "--erasure", "0,1"], "at least 1"),
    (["day", "--erasure", "2"], "wants K,M"),
    (["day", "--erasure", "2,1", "--clusters", "3", "--mode", "prototype"],
     "erasure coding requires the revised"),
    (["day", "--replication", "2", "--mode", "prototype"],
     "replication requires the revised"),
    (["day", "--replication", "0"], "--replication: must be at least 1"),
    (["day", "--replication", "-3"], "--replication: must be at least 1"),
    (["day", "--clusters", "0"], "clusters must be at least 1"),
    # Exit 1 is soak's "invariant violated"; a refused shape must not read so.
    (["soak", "--clusters", "0", "--hours", "0.1"], "clusters must be at least 1"),
    (["day", "--plan-file", "missing.json"], "No such file"),
    (["day", "--plan-file", "not-json.json"], "not-json.json: Expecting"),
    (["day", "--plan-file", "no-target.json"], "malformed fault plan"),
    (["day", "--plan-file", "bogus-kind.json"], "unknown fault kind 'bogus'"),
    (["day", "--timeline", "t.json"], "--timeline needs a fault plan"),
])
def test_rejected_configuration_is_a_usage_error(argv, named, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert errors[0].startswith("python -m repro")
    assert "Traceback" not in captured.err and captured.out == ""


def test_chaos_partition_plan_reports_availability(capsys):
    # Servers finish calls after the bridge is cut; their replies have no
    # route and must be dropped like any lost datagram, not kill the day.
    assert main([
        "day", "--mode", "revised", "--plan", "partition", "--seed", "7",
        "--clusters", "2", "--workstations", "4",
        "--duration", "600", "--warmup", "60",
    ]) == 0
    out = capsys.readouterr().out
    assert "Availability" in out
    assert "faults: 1 injected, 1 recovered" in out


# The redundancy anchors: a 3 x 4 campus whose server0 crashes at t=600 s
# for 120 s.  Re-recorded when ``day`` absorbed the fault-injection command
# (its own recipe: 200-file caches, full provisioning); a change meant to
# move them re-records the line and says why.
_REDUNDANT_DAY = ["day", "--mode", "revised", "--clusters", "3",
                  "--workstations", "4", "--duration", "1800", "--warmup", "120",
                  "--plan", "server-crash", "--seed", "7"]


@pytest.mark.parametrize("scheme,line", [
    (["--replication", "3"],
     "replication (factor 3): 1 deaths declared, 7 promotions, "
     "15 re-replications, 1 rejoins"),
    (["--erasure", "2,1"],
     "erasure (2+1): 1 deaths declared, 7 promotions, 15 stripe rebuilds, "
     "1 rejoins; 10 degraded reads, 26137482 repair-traffic bytes"),
])
def test_redundant_server_crash_day_pinned(scheme, line, capsys):
    assert main(_REDUNDANT_DAY + scheme) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
