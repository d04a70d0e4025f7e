"""Unit tests for Resource and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grants_immediately_when_free(self, sim):
        resource = Resource(sim, capacity=1)

        def proc():
            request = resource.request()
            yield request
            granted_at = sim.now
            resource.release(request)
            return granted_at

        assert sim.run_until_complete(sim.process(proc())) == 0.0

    def test_serializes_contending_users(self, sim):
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker(tag):
            yield from resource.use(10.0)
            finish_times.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.process(worker(tag))
        sim.run()
        assert finish_times == [("a", 10.0), ("b", 20.0), ("c", 30.0)]

    def test_capacity_two_runs_pairs_concurrently(self, sim):
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_fifo_ordering(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, arrive):
            yield sim.timeout(arrive)
            yield from resource.use(5.0)
            order.append(tag)

        sim.process(worker("late", 2.0))
        sim.process(worker("early", 1.0))
        sim.run()
        assert order == ["early", "late"]

    def test_in_use_and_queue_length(self, sim):
        resource = Resource(sim, capacity=1)
        observed = {}

        def holder():
            request = resource.request()
            yield request
            yield sim.timeout(5.0)
            observed["in_use"] = resource.in_use
            observed["queued"] = resource.queue_length
            resource.release(request)

        def waiter():
            yield sim.timeout(1.0)
            yield from resource.use(1.0)

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert observed == {"in_use": 1, "queued": 1}

    def test_release_of_unknown_request_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)
        request = other.request()
        sim.run()
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_withdraw_queued_request(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        queued = resource.request()
        resource.release(queued)  # withdraw before grant
        resource.release(held)
        sim.run()
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_utilization_tracks_busy_time(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(25.0)
            yield sim.timeout(75.0)

        sim.process(worker())
        sim.run()
        assert resource.utilization.mean_utilization(0.0, 100.0) == pytest.approx(0.25)

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_total_requests_counted(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(1.0)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert resource.total_requests == 3

    def test_use_releases_on_exception(self, sim):
        # An exception thrown in while the claim is held must hand the
        # capacity on to the queued waiter at that instant.
        resource = Resource(sim, capacity=1)

        def second():
            yield from resource.use(1.0)
            return sim.now

        holder = resource.use(100.0)  # driven by hand, so it can be thrown into
        assert next(holder) == 100.0 and resource.in_use == 1
        follower = sim.process(second())
        sim.run(until=5.0)
        assert resource.queue_length == 1
        with pytest.raises(RuntimeError, match="crashed while holding"):
            holder.throw(RuntimeError("crashed while holding"))
        assert sim.run_until_complete(follower) == 6.0
        assert resource.in_use == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")

        def consumer():
            value = yield store.get()
            return value

        assert sim.run_until_complete(sim.process(consumer())) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            value = yield store.get()
            return (value, sim.now)

        def producer():
            yield sim.timeout(7.0)
            store.put(42)

        sim.process(producer())
        assert sim.run_until_complete(sim.process(consumer())) == (42, 7.0)

    def test_fifo_order(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            for _ in range(3):
                value = yield store.get()
                received.append(value)

        sim.process(consumer())
        for value in (1, 2, 3):
            store.put(value)
        sim.run()
        assert received == [1, 2, 3]

    def test_multiple_waiters_served_in_order(self, sim):
        store = Store(sim)
        received = []

        def consumer(tag):
            value = yield store.get()
            received.append((tag, value))

        sim.process(consumer("first"))
        sim.process(consumer("second"))
        sim.run()
        store.put("a")
        store.put("b")
        sim.run()
        assert received == [("first", "a"), ("second", "b")]

    def test_len_counts_queued_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.total_put == 2


class TestIdleQueues:
    """An idle queue holds no deque; the first append makes one."""

    def test_idle_resource_holds_no_deque(self, sim):
        resource = Resource(sim, capacity=1)
        request = resource.request()
        resource.release(request)
        assert resource.try_claim()
        resource.release_anon()
        assert resource._queue == () and resource.queue_length == 0

    def test_contended_resource_keeps_fifo_order(self, sim):
        resource = Resource(sim, capacity=1)
        assert resource._queue == ()
        order = []

        def worker(tag, arrive):
            yield sim.timeout(arrive)
            yield from resource.use(5.0)
            order.append((tag, sim.now))

        for tag, arrive in (("c", 1.5), ("a", 0.0), ("b", 1.0), ("d", 2.0)):
            sim.process(worker(tag, arrive))
        sim.run()
        assert order == [("a", 5.0), ("b", 10.0), ("c", 15.0), ("d", 20.0)]

    def test_idle_store_holds_no_deque(self, sim):
        store = Store(sim)
        assert store._items == () and len(store) == 0
        received = []

        def consumer():
            for _ in range(3):
                received.append((yield store.get()))

        for value in (1, 2, 3):
            store.put(value)
        sim.process(consumer())
        sim.run()
        assert received == [1, 2, 3]
