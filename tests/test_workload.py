"""Tests for the workload package: benchmark, synthetic users."""

import pytest

from repro import ITCSystem, SystemConfig
from repro.workload import (
    AndrewBenchmark,
    PHASES,
    SOURCE_FILE,
    SizeModel,
    UserProfile,
    make_source_tree,
    provision_campus,
    run_campus_day,
)
from repro.sim.rand import WorkloadRandom
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


class TestSourceTree:
    def test_roughly_seventy_files(self):
        tree = make_source_tree()
        assert 65 <= len(tree) <= 75

    def test_deterministic(self):
        assert make_source_tree(seed=3) == make_source_tree(seed=3)

    def test_has_sources_and_headers(self):
        tree = make_source_tree()
        assert any(path.endswith(".c") for path in tree)
        assert any(path.endswith(".h") for path in tree)
        assert all(len(data) >= 1 for data in tree.values())


class TestSizeModels:
    def test_content_matches_sampled_size(self):
        rng = WorkloadRandom(1)
        body = SOURCE_FILE.content(rng)
        assert 1 <= len(body) <= SOURCE_FILE.cap_bytes

    def test_cap_respected(self):
        model = SizeModel(median_bytes=1000, sigma=2.0, cap_bytes=5000)
        rng = WorkloadRandom(2)
        assert all(model.sample(rng) <= 5000 for _ in range(500))


class TestAndrewBenchmark:
    def _setup(self, remote):
        campus = small_campus(functional_payload_crypto=False)
        session = alice_session(campus)
        tree = make_source_tree()
        if remote:
            campus.populate(campus.volume("u-alice"), tree, owner="alice")
            return campus, AndrewBenchmark(session, f"{HOME}/src", f"{HOME}/target")
        ws = session.workstation
        for path, data in sorted(tree.items()):
            parts = path.strip("/").split("/")
            built = ""
            for part in parts[:-1]:
                built += "/" + part
                if not ws.local_fs.exists(built):
                    ws.local_fs.mkdir(built)
            ws.local_fs.create(path, data)
        return campus, AndrewBenchmark(session, "/src", "/target")

    def test_local_run_produces_all_phases(self):
        campus, bench = self._setup(remote=False)
        result = run(campus, bench.run())
        assert set(result.phase_seconds) == set(PHASES)
        assert all(seconds >= 0 for seconds in result.phase_seconds.values())
        assert result.total_seconds > 100  # compile dominates

    def test_remote_run_copies_into_vice(self):
        campus, bench = self._setup(remote=True)
        result = run(campus, bench.run())
        volume = campus.volume("u-alice")
        assert volume.fs.exists("/target/main_00.c")
        assert volume.fs.exists("/target/a.out")
        assert result.total_seconds > 0

    def test_copy_preserves_contents(self):
        campus, bench = self._setup(remote=True)
        run(campus, bench.run())
        volume = campus.volume("u-alice")
        assert volume.read("/target/Makefile") == volume.read("/src/Makefile")

    def test_as_rows_ordered(self):
        campus, bench = self._setup(remote=False)
        result = run(campus, bench.run())
        rows = result.as_rows()
        assert [row[0] for row in rows] == list(PHASES) + ["Total"]
        assert rows[-1][1] == pytest.approx(result.total_seconds)

    def test_objects_go_to_local_tmp(self):
        """§3.1: temporaries belong in the local name space."""
        campus, bench = self._setup(remote=True)
        run(campus, bench.run())
        local_fs = campus.workstation(0).local_fs
        assert any(name.endswith(".o") for name in local_fs.listdir("/tmp"))
        assert not campus.volume("u-alice").fs.exists("/tmp")


class TestSyntheticCampus:
    def test_provision_creates_users_and_volumes(self):
        campus = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=2,
                                        functional_payload_crypto=False))
        users = provision_campus(campus, hot_files=5, cold_files=5,
                                 shared_files=5, binary_files=5)
        assert len(users) == 4
        # User volumes land in the owner's cluster.
        assert "u-user000" in campus.server(0).volumes
        assert "u-user002" in campus.server(1).volumes

    def test_short_day_runs_clean(self):
        campus = ITCSystem(SystemConfig(clusters=1, workstations_per_cluster=3,
                                        functional_payload_crypto=False))
        users = provision_campus(campus, hot_files=5, cold_files=5,
                                 shared_files=5, binary_files=5)
        profile = UserProfile(mean_think_seconds=5.0)
        for user in users:
            user.profile = profile
        summary = run_campus_day(campus, users, duration=300.0, warmup=100.0)
        assert summary["failures"] == 0
        assert summary["actions"] > 0
        assert 0.0 <= summary["hit_ratio"] <= 1.0
        assert summary["call_mix"]

    def test_warmup_resets_counters(self):
        campus = ITCSystem(SystemConfig(clusters=1, workstations_per_cluster=2,
                                        functional_payload_crypto=False))
        users = provision_campus(campus, hot_files=4, cold_files=4,
                                 shared_files=4, binary_files=4)
        for user in users:
            user.profile = UserProfile(mean_think_seconds=5.0)
        summary = run_campus_day(campus, users, duration=200.0, warmup=200.0)
        # After a warmup of similar length, the measured window's action
        # count reflects only itself (reset worked).
        assert summary["actions"] <= 2 * 200.0 / 5.0 * 2  # loose upper bound
