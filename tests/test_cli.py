"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.__main__ import RECORD, main
from repro.faults import PRESETS


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ITC Distributed File System" in out


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


def test_help_lists_two_workload_commands_among_three(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--help"])
    assert raised.value.code == 0
    out = capsys.readouterr().out
    assert "{info,andrew,day}" in out


# Folded into ``day``: the soak is ``day --invariants``; the rest into the
# observer flags and ``--plan``.  The console is gone: a day is watched
# through what it records (``--out DIR``).  The mobility penalty is
# ``examples/user_mobility.py``'s measurement.
@pytest.mark.parametrize("command", ["status", "chaos", "profile", "trace",
                                     "soak", "console", "mobility"])
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


# One tool per question: hot spots come from ``python -m cProfile``, the
# cache and event-queue counters from the record's ``metrics.json``; the
# hotspot tables keep five rows, and the soak gate's negative control
# zeroes ``repro.soak``'s pending bounds in its harness.
@pytest.mark.parametrize("command", ["andrew", "day"])
@pytest.mark.parametrize("flag", ["--profile", "--sort", "--top",
                                  "--break-invariant", "--workers"])
def test_observer_flags_are_gone(flag, command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, flag])
    assert raised.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_OBSERVER_FLAGS = ["--out", "--trace", "--check", "--window", "--invariants"]


_OPTIONS = {"andrew": 6, "day": 17}  # --help's options, -h aside


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


def test_plan_file_day_replays_from_its_record(tmp_path, monkeypatch, capsys):
    """The record keeps the plan a ``--plan-file`` day ran, and its
    ``command.json`` names that copy: the day replays from the record
    alone after the plan file is gone."""
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "plan-src.json"
    source.write_text(json.dumps(PRESETS["server-crash"](seed=0).to_dict()))
    argv = ["day", "--mode", "revised", "--clusters", "1", "--workstations", "2",
            "--duration", "600", "--warmup", "60", "--plan-file", str(source),
            "--out", "record"]
    assert main(argv) == 0
    first = (tmp_path / "record" / "summary.json").read_text()
    source.unlink()
    command = json.loads((tmp_path / "record" / "command.json").read_text())
    assert command[command.index("--plan-file") + 1] == "record/plan.json"
    assert main(command) == 0
    assert (tmp_path / "record" / "summary.json").read_text() == first
    assert json.loads(first)["availability"]["events"]["faults_injected"] == 1


def test_faulted_traced_soak_day_records_every_file(tmp_path, capsys):
    out = tmp_path / "a" / "record"  # made, parents and all
    assert main([
        "day", "--mode", "revised", "--clusters", "1", "--workstations", "2",
        "--duration", "600", "--warmup", "60", "--plan", "server-crash",
        "--invariants", "--trace", "--out", str(out),
    ]) == 0
    assert _record(out) == sorted(RECORD)
    plan = json.loads((out / "plan.json").read_text())
    assert plan == PRESETS["server-crash"](seed=0).to_dict()
    windows = (out / "windows.jsonl").read_text().splitlines()
    assert len(windows) == 1  # --invariants' 600-s window
    events = {json.loads(line)["event"] for line in (out / "ops.jsonl").read_text().splitlines()}
    assert {"fault", "recovery"} <= events
    timeline = json.loads((out / "timeline.json").read_text())
    assert timeline["summary"]["events"]["faults_injected"] == 1


def _assert_cache_counts(metrics, *suffixes):
    """Each ``*<suffix>`` cache is in the metrics dump, with hits and misses."""
    for suffix in suffixes:
        counts = [value["counts"] for name, value in metrics.items()
                  if name.endswith(suffix)]
        assert counts, suffix
        assert all({"hits", "misses"} <= set(each) for each in counts), suffix


# The simulation counters a profile reads beside its hot spots (run
# ``python -m cProfile`` for those) are in the record's metrics.json.
def test_profile_andrew(tmp_path, capsys):
    assert main(["andrew", "--mode", "revised", "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    _assert_cache_counts(metrics, "net.route_cache", "protection.cps_cache")


def test_profile_campus(tmp_path, capsys):
    assert main([
        "day", "--mode", "revised",
        "--clusters", "2", "--workstations", "2",
        "--duration", "30", "--warmup", "10", "--out", str(tmp_path),
    ]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    _assert_cache_counts(metrics, "net.route_cache", "location.resolve_cache",
                         "protection.cps_cache")
    # One event queue, so one fixed set of stats beside its event counts.
    assert metrics["sim.kernel.events"]["total"] > 0
    assert "sim.kernel.cascade_events" in metrics
    queue = metrics["sim.kernel.queue"]["value"]
    assert {"pushes", "dead", "compactions"} <= set(queue)
    for gone in ("buckets", "bucket_width", "overflow", "resizes"):
        assert gone not in queue, gone


def test_profile_campus_with_rolling_window(capsys):
    assert main([
        "day", "--clusters", "1", "--workstations", "2",
        "--duration", "60", "--warmup", "10", "--window", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "Top volumes" in out
    assert "Top servers" in out
    assert "snapshot overhead" in out


def test_top_sizes_only_the_hotspot_tables(capsys):
    # Three clusters of two: six users and their volumes must be cut to
    # five rows, and the server table ranks file servers only (three of
    # the nine RPC hosts).
    assert main([
        "day", "--clusters", "3", "--workstations", "2",
        "--duration", "300", "--warmup", "30", "--window", "60",
    ]) == 0
    out = capsys.readouterr().out
    tables = {field: out[out.index(f"Top {field}"):].split("\n\n")[0].splitlines()[3:]
              for field in ("volumes", "users", "servers")}  # rows below the rule
    assert len(tables["volumes"]) == len(tables["users"]) == 5, tables
    assert sorted(row.split()[0] for row in tables["servers"]) == [
        "server0", "server1", "server2"]


def test_chaos_with_rolling_window(capsys):
    assert main([
        "day", "--mode", "revised", "--plan", "server-crash",
        "--clusters", "1", "--workstations", "2",
        "--duration", "600", "--warmup", "60",
        "--window", "120",
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
    (["day", "--duration", "0"], "--duration: must be a positive number"),
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
    # vacuously).
    (["day", "--workstations", "-2"], "workstations per cluster must be at least 1"),
    (["day", "--invariants", "--workstations", "0"],
     "workstations per cluster must be at least 1"),
    # No window is endless, andrew's record needs a directory too, and a
    # day runs one plan.
    (["day", "--window", "inf"], "--window: must be a non-negative number"),
    (["andrew", "--out", "not-json.json"], "--out not-json.json: File exists"),
    (["day", "--plan", "server-crash", "--plan-file", "no-target.json"],
     "--plan-file: not allowed with argument --plan"),
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
# and more reads finish in the day once each costs no timeout.  It went
# 20 -> 30 degraded reads and 26137482 -> 28254783 repair bytes when
# ``--seed`` began reseeding provisioning as the ledger does (the files,
# not only the campus, now depend on the seed; the factor-3 line held).
_REDUNDANT_DAY = ["day", "--mode", "revised", "--clusters", "3",
                  "--workstations", "4", "--duration", "1800", "--warmup", "120",
                  "--plan", "server-crash", "--seed", "7"]


@pytest.mark.parametrize("scheme,line", [
    (["--replication", "3"],
     "replication (factor 3): 1 deaths declared, 7 promotions, "
     "15 re-replications, 1 rejoins"),
    (["--erasure", "2,1"],
     "erasure (2+1): 1 deaths declared, 7 promotions, 15 stripe rebuilds, "
     "1 rejoins; 30 degraded reads, 28254783 repair-traffic bytes"),
])
def test_redundant_server_crash_day_pinned(scheme, line, capsys):
    assert main(_REDUNDANT_DAY + scheme) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line


def _day_summary(tmp_path, *flags):
    out = tmp_path / "_".join(flags).replace("-", "")
    assert main(["day", *flags, "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


def test_seed_reseeds_provisioning(tmp_path, capsys):
    # The ledger's seed rule: --seed is added to the campus seed and to
    # provisioning's.  While provisioning kept seed 11, seeds 0 and 3 ran
    # the same 34 actions at hit ratio 0.517241.
    days = [_day_summary(tmp_path, "--clusters", "1", "--workstations", "4",
                         "--duration", "300", "--warmup", "300", "--seed", seed)
            for seed in ("0", "3")]
    assert [(day["actions"], round(day["hit_ratio"], 6)) for day in days] == [
        (34, 0.517241), (35, 0.46875)]


def test_scenario_flag_runs_a_catalogue_row_and_flags_override_it(tmp_path, capsys):
    # coded-crash, shrunk: its 4+2 stripes and its crash 30 % into the
    # measured window come from the row, the shape and length from flags.
    summary = _day_summary(tmp_path, "--scenario", "coded-crash",
                           "--workstations", "1", "--warmup", "30",
                           "--duration", "300")
    out = capsys.readouterr().out
    assert "running 7 users for 300s (+30s warm-up), mode=revised under plan " \
           "'server-crash', seed=0" in out
    assert "faults: 1 injected" in out
    assert out.splitlines()[-2].startswith("erasure (4+2): 1 deaths declared")
    assert summary["actions"] > 0 and summary["failures"] == 0


def test_scenario_choices_are_the_catalogue(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["day", "--scenario", "campus-9000"])
    assert raised.value.code == 2
    assert "proto-20" in capsys.readouterr().err
