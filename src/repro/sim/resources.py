"""Contended resources for the simulation kernel.

Two primitives cover every queueing point in the ITC system:

* :class:`Resource` — a FIFO server pool with fixed capacity.  Server CPUs,
  disks and network links are ``Resource(capacity=1)``; the utilization
  integral each resource keeps is exactly what the paper's §5.2 utilization
  figures measure.
* :class:`Store` — an unbounded producer/consumer queue, used for NIC input
  queues and for handing requests to server worker processes.

Both integrate with :mod:`repro.sim.metrics` so benches can report mean and
windowed (short-term peak) utilization without extra plumbing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Union

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator
from repro.sim.metrics import UtilizationTracker

__all__ = ["Request", "Resource", "Store"]

# What an idle queue holds: no deque until its first append, since most
# of a campus's thousands of queues never see contention.
_EMPTY = ()


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when capacity is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (hot path: one Request per CPU/disk claim).
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._defused = False
        self._cancelled = False
        self.resource = resource


class Resource:
    """A fixed-capacity FIFO resource (CPU, disk arm, link, lock...).

    Usage from inside a process::

        request = resource.request()
        yield request
        try:
            yield service_time  # a float: the process sleeps
        finally:
            resource.release(request)

    or, for the common acquire-hold-release pattern::

        yield from resource.use(service_time)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._queue: Union[Deque[Request], tuple] = _EMPTY
        self._users: List[Request] = []
        # Claims granted through the handle-free fast path (try_claim);
        # counted, not stored — there is no Request object to remember.
        self._anon = 0
        # Invariant: _in_use == len(_users) + _anon.  Maintained
        # incrementally because claim/release is the hottest non-kernel
        # path in a campus run (~1M len() calls otherwise).
        self._in_use = 0
        self.utilization = UtilizationTracker(sim, capacity=capacity, name=name)
        self.total_requests = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted claims."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of claims waiting for capacity."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one unit of capacity; the returned event fires when granted.

        An uncontended claim is granted *synchronously*: the returned event
        is already processed, so a waiting process resumes inline without a
        trip through the event heap.  Contended claims queue and are granted
        through the normal scheduled path when capacity frees up.
        """
        self.total_requests += 1
        request = Request(self)
        if self._in_use < self.capacity:
            # Fast path: mark the event triggered-and-processed in place.
            request._triggered = True
            request._value = self
            request.callbacks = None
            self._users.append(request)
            self._in_use += 1
            self.utilization.record(self._in_use)
        else:
            if self._queue is _EMPTY:
                self._queue = deque()
            self._queue.append(request)
        return request

    def try_claim(self) -> bool:
        """Handle-free synchronous claim; True if capacity was free.

        The hottest acquire-hold-release paths (CPU compute, medium bursts)
        never inspect their claim, so when the resource is uncontended the
        Request event object is pure allocation churn.  A successful
        try_claim MUST be paired with :meth:`release_anon`.
        """
        in_use = self._in_use
        if in_use >= self.capacity:
            return False
        self.total_requests += 1
        self._anon += 1
        self._in_use = in_use + 1
        self.utilization.record(in_use + 1)
        return True

    def release_anon(self) -> None:
        """Return a :meth:`try_claim` claim and wake the next waiter."""
        self._anon -= 1
        self._in_use -= 1
        self.utilization.record(self._in_use)
        while self._queue and self._in_use < self.capacity:
            self._grant(self._queue.popleft())

    def release(self, request: Request) -> None:
        """Return a previously granted claim and wake the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            # A cancelled (never-granted) request may be withdrawn instead.
            if request in self._queue:
                self._queue.remove(request)
                return
            raise SimulationError("release of a request this resource never granted")
        self._in_use -= 1
        self.utilization.record(self._in_use)
        while self._queue and self._in_use < self.capacity:
            self._grant(self._queue.popleft())

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire, hold for ``duration`` seconds of virtual time, release."""
        duration = float(duration)
        if self.try_claim():
            try:
                yield duration
            finally:
                self.release_anon()
            return
        request = self.request()
        if request.callbacks is not None:
            # Contended: wait for the grant (synchronous grants are already
            # processed, so the yield would be an immediate no-op resume).
            yield request
        try:
            yield duration
        finally:
            self.release(request)

    def _grant(self, request: Request) -> None:
        self._users.append(request)
        self._in_use += 1
        self.utilization.record(self._in_use)
        request.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or id(self)} {self.in_use}/{self.capacity}"
            f" queued={self.queue_length}>"
        )


class Store:
    """An unbounded FIFO handoff queue between producer and consumer processes."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Union[Deque[Any], tuple] = _EMPTY
        self._getters: Deque[Event] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting consumer, if any."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            if self._items is _EMPTY:
                self._items = deque()
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if one is queued)."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Store {self.name or id(self)} items={len(self._items)} waiters={len(self._getters)}>"
