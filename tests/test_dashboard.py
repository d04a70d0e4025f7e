"""First tests for the operator dashboard (analysis/dashboard.py).

The reports are driven by the metrics registry, so these tests pin both the
table rendering and the registry wiring behind it.
"""

from tests.helpers import alice_session, run, small_campus

from repro import ITCSystem, SystemConfig
from repro.analysis import CampusMonitor
from repro.faults import Fault, FaultPlan
from repro.vice.replication import ReplicationConfig
from repro.workload import provision_campus, run_campus_day
from repro.analysis.dashboard import (
    campus_report,
    server_report,
    volume_report,
    workstation_report,
)


def _busy_campus():
    campus = small_campus(workstations_per_cluster=2)
    writer = alice_session(campus, ws=0)
    reader = alice_session(campus, ws=1)
    run(campus, writer.write_file("/vice/usr/alice/doc", b"d" * 3000))
    run(campus, reader.read_file("/vice/usr/alice/doc"))
    run(campus, reader.read_file("/vice/usr/alice/doc"))  # a cache hit
    return campus


def test_workstation_report_rows_match_registry():
    campus = _busy_campus()
    table = workstation_report(campus)
    rendered = str(table)
    assert "Virtue workstations" in rendered
    for workstation in campus.workstations:
        assert workstation.name in rendered
    # The rendered counts are the registry's, which are the components'.
    venus = campus.workstation(1).venus
    name = campus.workstation(1).name
    row = next(r for r in table.rows if r[0] == name)
    assert row[4] == str(venus.opens)
    assert row[5] == str(venus.fetches)
    assert row[6] == str(venus.stores)


def test_server_report_rows_match_registry():
    campus = _busy_campus()
    table = server_report(campus)
    rendered = str(table)
    assert "Vice servers" in rendered
    server = campus.servers[0]
    row = next(r for r in table.rows if r[0] == server.host.name)
    assert row[1] == str(len(server.volumes))
    assert row[4] == str(server.node.calls_received.total)
    assert row[7] == str(server.clients.promises_held)
    assert row[8] == str(server.clients.locks_held)


def test_server_report_respects_window_start():
    campus = _busy_campus()
    # A window starting "now" has seen no busy time: utilization renders 0.
    late = server_report(campus, start=campus.sim.now)
    row = next(iter(late.rows))
    assert row[5].strip() == "0.0%"


def test_volume_report_lists_mounts():
    campus = _busy_campus()
    rendered = str(volume_report(campus))
    assert "/usr/alice" in rendered
    assert "u-alice" in rendered


def test_campus_report_composes_all_sections():
    campus = _busy_campus()
    rendered = campus_report(campus)
    assert "Campus status at t=" in rendered
    assert "Vice servers" in rendered
    assert "Virtue workstations" in rendered
    assert "Location database" in rendered
    assert "Campus call mix" in rendered


def test_reports_render_on_an_idle_campus():
    campus = small_campus()
    rendered = campus_report(campus)
    assert "Vice servers" in rendered  # no traffic, still renders


def test_location_views_follow_the_controller_while_server0_is_down():
    # server0 crashes mid-day and stays down; the controller promotes
    # survivors, and server0's own replica of the database goes stale.
    campus = ITCSystem(SystemConfig(
        clusters=3, workstations_per_cluster=2, functional_payload_crypto=False,
        replication=ReplicationConfig(factor=3),
        fault_plan=FaultPlan(name="server0-down", faults=(
            Fault("server_crash", "server0", start=300.0, duration=1e5),)),
    ))
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    run_campus_day(campus, users, duration=600.0, warmup=60.0)
    entries = campus.replication_controller.location.entries()
    stale = campus.servers[0].location
    assert sum(stale.entry_for_volume(e.volume_id).custodian == "server0"
               for e in entries) == 5
    rows = {row[1]: row for row in volume_report(campus).rows}
    assert len(rows) == len(entries)
    for entry in entries:
        assert entry.custodian != "server0"
        assert rows[entry.volume_id][2:4] == [entry.custodian,
                                              ",".join(entry.replicas)]
    recommendations = CampusMonitor(campus).recommendations(
        min_accesses=1, remote_threshold=0.0)
    assert recommendations
    for rec in recommendations:
        assert "server0" not in (rec.current_server, rec.suggested_server)
