"""Tests for the timesharing comparator (§2.2's yardstick)."""

import pytest

from repro.sim import Simulator
from repro.sim.rand import WorkloadRandom
from repro.workload.synthetic import UserProfile
from repro.workload.timesharing import (
    TimesharingSystem,
    TimesharingUser,
    recompile_task,
    run_timesharing_compile,
)


class TestTimesharingSystem:
    def test_file_roundtrip(self):
        sim = Simulator()
        system = TimesharingSystem(sim)

        def go():
            yield from system.write_file("/usr/f", b"shared data", "u")
            return (yield from system.read_file("/usr/f"))

        assert sim.run_until_complete(sim.process(go())) == b"shared data"

    def test_compute_shares_one_cpu(self):
        sim = Simulator()
        system = TimesharingSystem(sim, cpu_speed=1.0)
        finished = []

        def worker(tag):
            yield from system.compute(10.0)
            finished.append((tag, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert finished[0][1] == pytest.approx(10.0)
        assert finished[1][1] == pytest.approx(20.0)  # queued behind a

    def test_disks_round_robin(self):
        sim = Simulator()
        system = TimesharingSystem(sim, disk_count=2)
        first = system.disk()
        second = system.disk()
        assert first is not second
        assert system.disk() is first

    def test_stat_on_shared_machine(self):
        sim = Simulator()
        system = TimesharingSystem(sim)

        def go():
            yield from system.write_file("/usr/f", b"123", "u")
            return (yield from system.stat("/usr/f"))

        assert sim.run_until_complete(sim.process(go()))["size"] == 3


class TestTimesharingUsers:
    def test_user_files_are_private_trees(self):
        sim = Simulator()
        system = TimesharingSystem(sim)
        rng = WorkloadRandom(1)
        a = TimesharingUser(system, "a", UserProfile(), rng.fork(1))
        b = TimesharingUser(system, "b", UserProfile(), rng.fork(2))
        assert not set(a.paths) & set(b.paths)


class TestRecompileComparison:
    def test_compile_task_slows_with_load(self):
        light = run_timesharing_compile(5, source_count=10)
        heavy = run_timesharing_compile(50, source_count=10)
        assert heavy["task_seconds"] > light["task_seconds"] * 1.3

    def test_task_output_written(self):
        sim = Simulator()
        system = TimesharingSystem(sim)
        system.fs.makedirs("/usr/task")
        system.fs.write("/usr/task/src.c", b"int main(){}", owner="task")

        class Adapter:
            def stat(self, path):
                return system.stat(path)

            def read_file(self, path):
                return system.read_file(path)

            def compute(self, seconds):
                return system.compute(seconds)

            def write_output(self, name, data):
                return system.write_file(f"/usr/task/{name}", data, "task")

        sim.run_until_complete(
            sim.process(recompile_task(Adapter(), ["/usr/task/src.c"]))
        )
        assert system.fs.exists("/usr/task/obj_000.o")
