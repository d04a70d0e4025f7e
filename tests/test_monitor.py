"""Tests for the §3.6 monitoring tools and rebalancing recommendations."""

import pytest

from repro.analysis import CampusMonitor
from repro.obs import RollingAggregator
from tests.helpers import run, small_campus


def remote_heavy_campus(accesses=25):
    """A user whose volume lives in cluster 0 but who works in cluster 1."""
    campus = small_campus(clusters=2, workstations_per_cluster=1)
    campus.add_user("mover", "pw")
    campus.create_user_volume("mover", cluster=0)
    session = campus.login("ws1-0", "mover", "pw")
    for index in range(accesses):
        run(campus, session.write_file(f"/vice/usr/mover/f{index}", b"x" * 300))
    return campus, session


class TestTrafficObservation:
    def test_traffic_matrix_attributes_by_segment(self):
        campus, _session = remote_heavy_campus(accesses=5)
        monitor = CampusMonitor(campus)
        matrix = monitor.traffic_matrix()
        assert "u-mover" in matrix
        assert matrix["u-mover"].get("cluster1", 0) >= 5
        assert matrix["u-mover"].get("cluster0", 0) == 0

    def test_local_traffic_attributed_locally(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = campus.login("ws0-0", "alice", "alice-pw")
        run(campus, session.write_file("/vice/usr/alice/f", b"y"))
        matrix = CampusMonitor(campus).traffic_matrix()
        assert matrix["u-alice"].get("cluster0", 0) >= 1

    def test_usage_by_user_accumulates_bytes(self):
        campus, _session = remote_heavy_campus(accesses=4)
        usage = CampusMonitor(campus).usage_by_user()
        assert usage["mover"] >= 4 * 300

    def test_server_load_view(self):
        campus, _session = remote_heavy_campus(accesses=3)
        load = CampusMonitor(campus).server_load()
        assert load["server0"] > 0
        assert set(load) == {"server0", "server1"}

    def test_reset_clears_window(self):
        campus, session = remote_heavy_campus(accesses=5)
        monitor = CampusMonitor(campus)
        monitor.reset()
        assert monitor.traffic_matrix() == {}

    def test_reset_windows_every_view_and_writes_no_counter(self):
        campus, session = remote_heavy_campus(accesses=5)
        server = campus.server(0)
        traffic, before = server.volume_traffic, server.volume_traffic.as_dict()
        aggregator = RollingAggregator(campus.metrics)
        aggregator.sample(campus.sim.now)
        monitor = CampusMonitor(campus)
        monitor.reset()
        assert monitor.traffic_matrix() == {}
        assert monitor.usage_by_user() == {}
        assert monitor.server_load() == {}
        assert server.volume_traffic is traffic
        assert traffic.as_dict() == before
        # Both observers count what happens after the reset, and only that.
        for index in range(3):
            run(campus, session.write_file(f"/vice/usr/mover/g{index}", b"x" * 300))
        assert monitor.traffic_matrix()["u-mover"]["cluster1"] == 3
        assert monitor.usage_by_user() == {"mover": 900}
        assert aggregator.sample(campus.sim.now)["volumes"] == {"u-mover": 3.0}


class TestRecommendations:
    def test_remote_heavy_volume_flagged(self):
        campus, _session = remote_heavy_campus(accesses=25)
        monitor = CampusMonitor(campus)
        recommendations = monitor.recommendations(min_accesses=20)
        assert len(recommendations) == 1
        rec = recommendations[0]
        assert rec.volume_id == "u-mover"
        assert rec.current_server == "server0"
        assert rec.suggested_server == "server1"
        assert rec.remote_fraction > 0.9

    def test_quiet_volumes_not_flagged(self):
        campus, _session = remote_heavy_campus(accesses=5)
        assert CampusMonitor(campus).recommendations(min_accesses=20) == []

    def test_locally_used_volumes_not_flagged(self):
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        session = campus.login("ws0-0", "alice", "alice-pw")
        for index in range(30):
            run(campus, session.write_file(f"/vice/usr/alice/f{index}", b"z"))
        assert CampusMonitor(campus).recommendations(min_accesses=20) == []

    def test_applying_recommendation_moves_the_volume(self):
        campus, session = remote_heavy_campus(accesses=25)
        monitor = CampusMonitor(campus)
        rec = monitor.recommendations(min_accesses=20)[0]
        run(campus, monitor.apply(rec))
        assert "u-mover" in campus.server(1).volumes
        assert "u-mover" not in campus.server(0).volumes
        # The user keeps working, now locally.
        assert run(campus, session.read_file("/vice/usr/mover/f0")) == b"x" * 300

    def test_after_move_no_further_recommendation(self):
        campus, session = remote_heavy_campus(accesses=25)
        monitor = CampusMonitor(campus)
        rec = monitor.recommendations(min_accesses=20)[0]
        run(campus, monitor.apply(rec))
        monitor.reset()
        for index in range(25):
            run(campus, session.read_file(f"/vice/usr/mover/f{index}"))
        # Reads now hit server1 from cluster1: nothing to recommend.
        assert monitor.recommendations(min_accesses=20) == []

    def test_cross_cluster_traffic_falls_after_move(self):
        campus, session = remote_heavy_campus(accesses=25)
        campus.workstation("ws1-0").venus.invalidate_all()
        before = campus.cross_cluster_bytes()
        run(campus, session.read_file("/vice/usr/mover/f0"))
        cold_remote = campus.cross_cluster_bytes() - before

        monitor = CampusMonitor(campus)
        rec = monitor.recommendations(min_accesses=20)[0]
        run(campus, monitor.apply(rec))
        campus.workstation("ws1-0").venus.invalidate_all()
        before = campus.cross_cluster_bytes()
        run(campus, session.read_file("/vice/usr/mover/f1"))
        cold_local = campus.cross_cluster_bytes() - before
        assert cold_local < cold_remote


class TestDashboard:
    def test_campus_report_renders_everything(self):
        from repro.analysis import campus_report

        campus, session = remote_heavy_campus(accesses=3)
        report = campus_report(campus)
        assert "Vice servers" in report
        assert "Virtue workstations" in report
        assert "Location database" in report
        assert "Campus call mix" in report
        assert "server0" in report and "server1" in report
        assert "ws1-0" in report
        assert "/usr/mover" in report

    def test_report_marks_offline_volumes(self):
        from repro.analysis import campus_report

        campus, _session = remote_heavy_campus(accesses=1)
        campus.volume("u-mover").take_offline()
        assert "OFFLINE" in campus_report(campus)

    def test_report_before_any_traffic(self):
        from repro.analysis import campus_report
        from tests.helpers import small_campus

        campus = small_campus()
        report = campus_report(campus)
        assert "Campus call mix" not in report  # nothing counted yet
        assert "u-alice" in report
