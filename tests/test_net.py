"""Unit tests for the campus network substrate."""

import pytest

from repro.errors import SimulationError
from repro.net import Datagram, Network, WireFormat
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def transfer_times(sizes):
    """Finish times of one local send per size, all started at t = 0 on a
    fresh network."""
    sim = Simulator()
    net = two_cluster_net(sim)
    finished = []

    def sender(size):
        yield from net.send(Datagram("a", "b", None, size))
        finished.append(sim.now)

    for size in sizes:
        sim.process(sender(size))
    sim.run()
    return finished


def two_cluster_net(sim):
    """backbone joining cluster0 and cluster1, one node on each."""
    net = Network(sim)
    net.add_segment("backbone")
    net.add_segment("cluster0")
    net.add_segment("cluster1")
    net.add_bridge("br0", "cluster0", "backbone")
    net.add_bridge("br1", "cluster1", "backbone")
    net.attach("a", "cluster0")
    net.attach("b", "cluster0")
    net.attach("c", "cluster1")
    return net


class TestWireFormat:
    def test_frames_for(self):
        wire = WireFormat(mtu=1000, header_bytes=50)
        assert wire.frames_for(0) == 1
        assert wire.frames_for(1) == 1
        assert wire.frames_for(1000) == 1
        assert wire.frames_for(1001) == 2
        assert wire.frames_for(10_000) == 10

    def test_wire_bytes_includes_headers(self):
        wire = WireFormat(mtu=1000, header_bytes=50)
        assert wire.wire_bytes(2000) == 2000 + 2 * 50


class TestRouting:
    def test_same_segment_single_hop(self, sim):
        net = two_cluster_net(sim)
        assert net.hop_count("a", "b") == 1

    def test_cross_cluster_three_hops(self, sim):
        net = two_cluster_net(sim)
        route = net.route("a", "c")
        assert [segment.name for segment in route] == ["cluster0", "backbone", "cluster1"]

    def test_route_cached(self, sim):
        net = two_cluster_net(sim)
        assert net.route("a", "c") is net.route("a", "c")

    def test_duplicate_node_rejected(self, sim):
        net = two_cluster_net(sim)
        with pytest.raises(SimulationError):
            net.attach("a", "cluster1")

    def test_duplicate_segment_rejected(self, sim):
        net = two_cluster_net(sim)
        with pytest.raises(SimulationError):
            net.add_segment("backbone")

    def test_partition_breaks_route(self, sim):
        net = two_cluster_net(sim)
        net.partition("cluster1")
        with pytest.raises(SimulationError):
            net.route("a", "c")
        assert net.hop_count("a", "b") == 1  # intra-cluster unaffected

    def test_heal_restores_route(self, sim):
        net = two_cluster_net(sim)
        net.partition("cluster1")
        net.heal("cluster1")
        assert net.hop_count("a", "c") == 3


class TestTransfer:
    def test_delivery_to_inbox(self, sim):
        net = two_cluster_net(sim)

        def sender():
            yield from net.send(Datagram("a", "b", "hello", 100))

        def receiver():
            datagram = yield net.interfaces["b"].receive()
            return datagram.payload, datagram.hops

        sim.process(sender())
        payload, hops = sim.run_until_complete(sim.process(receiver()))
        assert payload == "hello"
        assert hops == 1

    def test_cross_cluster_delivery_slower_than_local(self, sim):
        net = two_cluster_net(sim)
        times = {}

        def send_to(dst):
            start = sim.now
            yield from net.send(Datagram("a", dst, None, 10_000))
            times[dst] = sim.now - start

        sim.run_until_complete(sim.process(send_to("b")))
        sim.run_until_complete(sim.process(send_to("c")))
        assert times["c"] > times["b"]

    def test_lost_datagram_not_delivered_but_carried(self, sim):
        net = two_cluster_net(sim)
        before = net.total_bytes_on("cluster0")

        def sender():
            yield from net.send(Datagram("a", "b", None, 5000), deliver=False)

        sim.run_until_complete(sim.process(sender()))
        assert len(net.interfaces["b"].inbox) == 0
        assert net.total_bytes_on("cluster0") > before

    def test_transmission_time_scales_with_size(self):
        (small,), (large,) = transfer_times([1_000]), transfer_times([100_000])
        assert large > 10 * small

    def test_concurrent_transfers_share_medium(self):
        (alone,) = transfer_times([1_000_000])
        # Bursts interleave, so contention slows *both* transfers: even the
        # first to finish takes much longer than an uncontended transfer.
        assert min(transfer_times([1_000_000, 1_000_000])) > alone * 1.5

    def test_bridge_counts_forwarded(self, sim):
        net = two_cluster_net(sim)

        def sender():
            yield from net.send(Datagram("a", "c", None, 100))

        sim.run_until_complete(sim.process(sender()))
        assert sum(bridge.transfers_forwarded for bridge in net.bridges) == 2

    def test_traffic_accounting_by_kind(self, sim):
        net = two_cluster_net(sim)

        def sender():
            yield from net.send(Datagram("a", "b", None, 100), kind="rpc")

        sim.run_until_complete(sim.process(sender()))
        assert net.segments["cluster0"].traffic.count("rpc") > 0


class TestRouteCacheInvalidation:
    """The memoized routes must never outlive a topology change."""

    def test_route_cache_counts_hits_and_misses(self, sim):
        net = two_cluster_net(sim)
        net.route("a", "c")
        net.route("a", "c")
        assert net.route_misses == 1
        assert net.route_hits == 1
        counts = sim.metrics.value("net.route_cache")["counts"]
        assert counts == {"hits": 1, "misses": 1}

    def test_partition_drops_cached_route(self, sim):
        net = two_cluster_net(sim)
        assert net.hop_count("a", "c") == 3  # primes the cache
        net.partition("cluster1")
        with pytest.raises(SimulationError):
            net.route("a", "c")
        assert net.hop_count("a", "b") == 1  # intra-cluster unaffected

    def test_heal_drops_cached_failure_and_restores_route(self, sim):
        net = two_cluster_net(sim)
        net.partition("cluster1")
        with pytest.raises(SimulationError):
            net.route("a", "c")
        net.heal("cluster1")
        route = net.route("a", "c")
        assert [segment.name for segment in route] == ["cluster0", "backbone", "cluster1"]

    def test_add_bridge_drops_cached_route(self, sim):
        net = Network(sim)
        for segment in ("s0", "s1", "s2"):
            net.add_segment(segment)
        net.add_bridge("br01", "s0", "s1")
        net.add_bridge("br12", "s1", "s2")
        net.attach("x", "s0")
        net.attach("y", "s2")
        assert net.hop_count("x", "y") == 3  # via s1, now cached
        net.add_bridge("br02", "s0", "s2")   # a shortcut appears
        assert net.hop_count("x", "y") == 2

    def test_delivery_after_heal_uses_full_path(self, sim):
        net = two_cluster_net(sim)
        net.partition("cluster1")
        net.heal("cluster1")

        def sender():
            yield from net.send(Datagram("a", "c", "payload", 100))

        def receiver():
            datagram = yield net.interfaces["c"].receive()
            return datagram.hops

        sim.process(sender())
        hops = sim.run_until_complete(sim.process(receiver()))
        assert hops == 3
        assert sum(bridge.transfers_forwarded for bridge in net.bridges) == 2
