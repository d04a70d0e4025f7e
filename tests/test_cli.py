"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.__main__ import RECORD, main


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


def test_help_lists_two_workload_commands_among_four(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--help"])
    assert raised.value.code == 0
    out = capsys.readouterr().out
    assert "{info,andrew,day,mobility}" in out


# Folded into ``day``: the soak is ``day --invariants``; the rest into the
# observer flags and ``--plan``.  The console is gone: a day is watched
# through what it records (``--out DIR``).
@pytest.mark.parametrize("command", ["status", "chaos", "profile", "trace",
                                     "soak", "console"])
def test_folded_commands_are_gone(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command])
    assert raised.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# The live console's flags went with it.
@pytest.mark.parametrize("flag", ["--console", "--pacing", "--headless",
                                  "--frames", "--print-frames"])
def test_console_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["day", flag])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# A run writes its record under ``--out DIR``; the per-file flags went.
@pytest.mark.parametrize("command", ["andrew", "day"])
@pytest.mark.parametrize("flag", ["--jsonl", "--metrics-json", "--window-jsonl",
                                  "--timeline", "--events", "--json"])
def test_record_file_flags_are_gone(flag, command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, flag, "out.json"])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["andrew", "day"])
def test_trace_takes_no_file(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, "--trace", "trace.json", "--check"])
    assert raised.value.code == 2
    assert "unrecognized arguments: trace.json" in capsys.readouterr().err


_OBSERVER_FLAGS = ["--out", "--trace", "--check", "--window", "--top",
                   "--profile", "--sort", "--invariants", "--break-invariant"]


_OPTIONS = {"andrew": 10, "day": 20}  # --help's options, -h aside


@pytest.mark.parametrize("command", ["andrew", "day"])
def test_each_observer_flag_declared_once(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    declared = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("  --")]
    for flag in _OBSERVER_FLAGS:
        assert declared.count(flag) == 1, flag
    assert len(declared) == _OPTIONS[command], declared


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


def _record(directory):
    return sorted(path.name for path in directory.iterdir())


def test_status_trace_and_metrics_outputs(tmp_path, capsys):
    out = tmp_path / "record"
    assert main([
        "day", "--clusters", "1", "--workstations", "1",
        "--duration", "60", "--warmup", "10", "--trace", "--out", str(out),
    ]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["traceEvents"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert any(name.startswith("venus.") for name in metrics)
    assert any(name.startswith("vice.") for name in metrics)


def test_andrew_trace_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "record"
    argv = ["andrew", "--mode", "revised", "--trace", "--check", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "remote penalty" in printed
    assert "coverage OK" in printed
    # No plan, no windows and no day summary: the argv, metrics and spans.
    assert _record(out) == ["command.json", "metrics.json", "spans.jsonl", "trace.json"]
    assert json.loads((out / "command.json").read_text()) == argv
    events = json.loads((out / "trace.json").read_text())["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    spans = (out / "spans.jsonl").read_text().splitlines()
    assert spans and all(json.loads(line)["name"] for line in spans)


def test_plain_day_records_command_summary_and_metrics(tmp_path, capsys):
    # An earlier run's trace is cleared: the record holds only this run's.
    out = tmp_path / "record"
    out.mkdir()
    (out / "trace.json").write_text("{}")
    argv = ["day", "--clusters", "1", "--workstations", "2",
            "--duration", "120", "--warmup", "20", "--out", str(out)]
    assert main(argv) == 0
    assert _record(out) == ["command.json", "metrics.json", "summary.json"]
    assert json.loads((out / "command.json").read_text()) == argv
    summary = json.loads((out / "summary.json").read_text())
    assert summary["actions"] > 0 and summary["violations"] == []
    assert f"-> {out}" in capsys.readouterr().out


def test_faulted_traced_soak_day_records_all_eight_files(tmp_path, capsys):
    out = tmp_path / "a" / "record"  # made, parents and all
    assert main([
        "day", "--mode", "revised", "--clusters", "1", "--workstations", "2",
        "--duration", "600", "--warmup", "60", "--plan", "server-crash",
        "--invariants", "--trace", "--out", str(out),
    ]) == 0
    assert _record(out) == sorted(RECORD)
    windows = (out / "windows.jsonl").read_text().splitlines()
    assert len(windows) == 1  # --invariants' 600-s window
    events = {json.loads(line)["event"] for line in (out / "ops.jsonl").read_text().splitlines()}
    assert {"fault", "recovery"} <= events
    timeline = json.loads((out / "timeline.json").read_text())
    assert timeline["summary"]["events"]["faults_injected"] == 1


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
    # Three clusters: the server table ranks file servers only, and --top 2
    # must cut each table, that one included.
    assert main([
        "day", "--clusters", "3", "--workstations", "1",
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


def test_hotspot_tables_name_what_they_rank(capsys):
    assert main([
        "day", "--clusters", "1", "--workstations", "2",
        "--duration", "600", "--warmup", "60", "--window", "60",
    ]) == 0
    out = capsys.readouterr().out
    volumes = out[out.index("Top volumes"):].split("\n\n")[0].splitlines()
    servers = out[out.index("Top servers"):].split("\n\n")[0].splitlines()
    # A volume's count is its data accesses (one per fetch or store), not bytes.
    assert volumes[1].split() == ["volume", "accesses", "share"]
    # Workstations receive RPCs too (callback breaks); only file servers rank.
    assert [row.split()[0] for row in servers[3:]] == ["server0"]


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
    # Exit 1 is --invariants' "invariant violated"; a refused shape must
    # not read so.
    (["day", "--invariants", "--clusters", "0"], "clusters must be at least 1"),
    (["day", "--plan-file", "missing.json"], "No such file"),
    (["day", "--plan-file", "not-json.json"], "not-json.json: Expecting"),
    (["day", "--plan-file", "no-target.json"], "malformed fault plan"),
    (["day", "--plan-file", "bogus-kind.json"], "unknown fault kind 'bogus'"),
    # A trace that is neither written nor checked would be recorded for
    # nothing.
    (["day", "--trace"], "--trace needs --out DIR (or --check)"),
    # A mistyped interval is refused before anything runs: no recipe that
    # needs windows run without them, no day that runs backwards or never
    # ends, and no negative window quietly read as "off".
    (["day", "--invariants", "--window", "0"], "--window: must be a positive number"),
    (["andrew", "--break-invariant", "--window", "0"],
     "--window: must be a positive number"),
    (["day", "--duration", "inf"], "--duration: must be a positive number"),
    (["day", "--warmup", "nan"], "--warmup: must be a non-negative number"),
    # A record needs a directory.
    (["day", "--out", "not-json.json"], "--out not-json.json: File exists"),
    (["day", "--duration", "-5", "--warmup", "10"],
     "--duration: must be a positive number"),
    (["day", "--warmup", "-50", "--duration", "10"],
     "--warmup: must be a non-negative number"),
    (["day", "--window", "-5", "--duration", "10", "--warmup", "10"],
     "--window: must be a non-negative number"),
    (["andrew", "--window", "-5"], "--window: must be a non-negative number"),
    # A plan whose faults all strike after the day would run and report
    # "faults: 0 injected"; the preset's crash is at t=600 s.
    (["day", "--plan", "server-crash", "--duration", "300", "--warmup", "30"],
     "first fault starts at t=600 s, the day ends at t=330 s"),
    # A campus of no users ran a day (and passed a soak's invariants
    # vacuously); a negative row count printed ranked[:-1]; a negative
    # --profile quietly meant "off".
    (["day", "--workstations", "-2"], "workstations per cluster must be at least 1"),
    (["day", "--invariants", "--workstations", "0"],
     "workstations per cluster must be at least 1"),
    (["day", "--window", "100", "--top", "-1"], "--top: must be at least 1"),
    (["andrew", "--top", "0"], "--top: must be at least 1"),
    (["andrew", "--profile", "-3"], "--profile: must be a non-negative integer"),
    # andrew takes the same observer flags, so the same refusal.
    (["andrew", "--invariants", "--window", "0"],
     "--window: must be a positive number for --invariants"),
    # flaky-campus faults server1, which a one-cluster campus lacks: the
    # day used to run until the first such fault and die with a KeyError.
    (["day", "--plan", "flaky-campus", "--warmup", "0", "--duration", "600"],
     "names 'server1', and this campus has no server"),
    (["andrew", "--trace"], "--trace needs --out DIR (or --check)"),
    (["andrew", "--out", "not-json.json/record"], "--out not-json.json/record: Not a directory"),
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


@pytest.mark.parametrize("plan", ["clean", "chaos"])
def test_plans_without_fixed_faults_run_a_short_day(plan, capsys):
    # Nothing to strike late: a clean plan injects nothing on purpose and
    # chaos draws its arrivals, so neither is refused on a short day.
    assert main([
        "day", "--mode", "revised", "--plan", plan,
        "--clusters", "1", "--workstations", "2",
        "--duration", "300", "--warmup", "30",
    ]) == 0
    assert "Availability" in capsys.readouterr().out


# The redundancy anchors: a 3 x 4 campus whose server0 crashes at t=600 s
# for 120 s.  Re-recorded when ``day`` absorbed the fault-injection command
# (its own recipe: 200-file caches, full provisioning); a change meant to
# move them re-records the line and says why.  The 2+1 line's degraded
# reads went 10 -> 20 when Venus began remembering silent servers: a read
# that skips a remembered-silent member decodes from parity and counts,
# and more reads finish in the day once each costs no timeout.
_REDUNDANT_DAY = ["day", "--mode", "revised", "--clusters", "3",
                  "--workstations", "4", "--duration", "1800", "--warmup", "120",
                  "--plan", "server-crash", "--seed", "7"]


@pytest.mark.parametrize("scheme,line", [
    (["--replication", "3"],
     "replication (factor 3): 1 deaths declared, 7 promotions, "
     "15 re-replications, 1 rejoins"),
    (["--erasure", "2,1"],
     "erasure (2+1): 1 deaths declared, 7 promotions, 15 stripe rebuilds, "
     "1 rejoins; 20 degraded reads, 26137482 repair-traffic bytes"),
])
def test_redundant_server_crash_day_pinned(scheme, line, capsys):
    assert main(_REDUNDANT_DAY + scheme) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
