"""Unit tests for the Host machine model and the error hierarchy."""

import pytest

from repro import errors
from repro.hosts import Host
from repro.net import Network
from repro.sim import Simulator


@pytest.fixture
def host():
    sim = Simulator()
    net = Network(sim)
    net.add_segment("lan")
    return Host(sim, net, "node", "lan", cpu_speed=2.0)


class TestHost:
    def test_compute_scales_with_speed(self, host):
        sim = host.sim

        def work():
            yield from host.compute(10.0)  # reference seconds
            return sim.now

        # Speed 2.0: the work takes half the reference time.
        assert sim.run_until_complete(sim.process(work())) == pytest.approx(5.0)

    def test_zero_compute_is_free(self, host):
        sim = host.sim

        def work():
            yield from host.compute(0.0)
            yield sim.timeout(0)
            return sim.now

        assert sim.run_until_complete(sim.process(work())) == 0.0

    def test_cpu_utilization_window(self, host):
        sim = host.sim

        def work():
            yield from host.compute(20.0)  # 10s busy at speed 2
            yield sim.timeout(10.0)

        sim.process(work())
        sim.run()
        assert host.cpu_utilization(0.0, 20.0) == pytest.approx(0.5)

    def test_crash_and_recover_flag(self, host):
        assert host.up
        host.crash()
        assert not host.up
        host.recover()
        assert host.up

    def test_invalid_speed_rejected(self, host):
        with pytest.raises(ValueError):
            Host(host.sim, host.network, "bad", "lan", cpu_speed=0.0)

    def test_concurrent_compute_serializes_on_cpu(self, host):
        sim = host.sim
        done = []

        def work(tag):
            yield from host.compute(10.0)
            done.append((tag, sim.now))

        sim.process(work("a"))
        sim.process(work("b"))
        sim.run()
        assert done == [("a", 5.0), ("b", 10.0)]


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in ("FileNotFound", "PermissionDenied", "VolumeOffline",
                     "AuthenticationFailure", "LockConflict", "QuotaExceeded"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_filesystem_errors_carry_errno_names(self):
        assert errors.FileNotFound.errno_name == "ENOENT"
        assert errors.FileExists.errno_name == "EEXIST"
        assert errors.NotADirectory.errno_name == "ENOTDIR"
        assert errors.IsADirectory.errno_name == "EISDIR"
        assert errors.DirectoryNotEmpty.errno_name == "ENOTEMPTY"
        assert errors.QuotaExceeded.errno_name == "EDQUOT"
        assert errors.ReadOnlyFileSystem.errno_name == "EROFS"

    def test_not_custodian_carries_hint(self):
        exc = errors.NotCustodian("server3")
        assert exc.custodian_hint == "server3"

    def test_security_errors_separate_from_filesystem(self):
        assert not issubclass(errors.AuthenticationFailure, errors.FileSystemError)
        assert not issubclass(errors.FileNotFound, errors.SecurityError)
