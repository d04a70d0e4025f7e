"""Discrete-event simulation kernel.

The whole reproduction runs on this kernel: Venus, the Vice servers, the
network and the synthetic users are all :class:`Process` instances advancing
a shared virtual clock.  The design is deliberately close to SimPy's proven
generator-process model, specialised to what the ITC system needs:

* :class:`Event` — a one-shot occurrence that processes can wait on.
* :class:`Timeout` — an event that fires after a virtual delay: a timer
  that is raced, cancelled or shared.
* :class:`Process` — a Python generator driven by the kernel; ``yield``\\ ing
  an event suspends the process until the event fires, and ``yield``\\ ing
  a plain ``float`` sleeps that many seconds with no event object at all.
* :class:`Condition` — the conjunction of events (``all_of``).
* :class:`Simulator` — the event heap and clock.

Virtual time is a ``float`` in **seconds**; the paper's quantities (a 1000 s
benchmark, 8-hour utilization windows) are all naturally expressed in it.

The kernel is the simulation's hottest code: every RPC, disk transfer and
user think-time passes through :meth:`Simulator.step`.  The implementation
therefore trades a little uniformity for allocation- and lookup-light hot
paths (processes schedule their own start instead of allocating a separate
init event and file *themselves* in the queue to sleep, ``run`` drives an
inlined loop, timeouts skip the generic event constructor) without changing
any observable ordering: events still fire in (time, creation-sequence)
order, so seeded runs are byte-identical to the original kernel's.

Two structures hold pending events:

* the **cascade deque** (``_nq``) — events due at exactly the current
  instant: every ``succeed``/``fail``, process start and zero-delay
  timeout or sleep.  Same-instant cascades (an RPC reply waking a process that
  immediately claims a resource that immediately grants...) append and pop
  in FIFO order at deque speed, never touching the time-ordered queue.
  Creation order *is* sequence order, so the FIFO tie-break is preserved.
* the **event queue** (:class:`EventQueue`) — events strictly in the
  future: one binary heap of ``(time, sequence, event)`` tuples.  When the
  clock advances to a timestamp, the whole cohort at that timestamp is
  drained into the cascade deque in one batch and dispatched without
  re-touching the heap.  Cancelled timers stay in place (lazy cancel) and
  are compacted away once 64 or more of them make up half the heap.
"""

from __future__ import annotations

import logging
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "EventQueue",
    "Simulator",
]

_log = logging.getLogger("repro.sim")

Entry = Tuple[float, int, Any]

# Compact once at least this many cancelled entries linger *and* they are
# at least half the queue: small queues tolerate a few corpses, churny
# ones (a retransmit timer per RPC, almost always cancelled) stay bounded.
_COMPACT_MIN_DEAD = 64


class EventQueue:
    """The kernel's future-event queue: one binary heap of
    ``(when, seq, event)``, with lazy cancellation.

    ``push`` takes a ``when`` strictly greater than the clock (at-now
    events bypass the queue through the kernel's cascade deque).
    ``pop_due`` is the hot-loop form — one Python call per dispatched
    timestamp.  ``note_cancel`` records that a queued event was lazily
    cancelled; once enough dead entries accumulate the queue compacts
    itself so cancel-heavy workloads (RPC retransmit timers) stay bounded.
    """

    name = "heap"

    __slots__ = ("_heap", "pushes", "dead", "compactions")

    def __init__(self):
        self._heap: List[Entry] = []
        self.pushes = 0
        self.dead = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, seq: int, event: Any) -> None:
        self.pushes += 1
        heappush(self._heap, (when, seq, event))

    def pop_due(self, until: Optional[float], out) -> Optional[Entry]:
        """Pop the earliest entry if it is due by ``until`` (``None`` = no
        horizon), drain the rest of its same-timestamp cohort into ``out``
        in sequence order, and return the entry.  Returns ``None`` when the
        queue is empty or the next entry is past the horizon (it stays
        queued, sequence intact)."""
        heap = self._heap
        if not heap:
            return None
        entry = heap[0]
        when = entry[0]
        if until is not None and when > until:
            return None
        heappop(heap)
        while heap and heap[0][0] == when:
            out.append(heappop(heap)[2])
        return entry

    def note_cancel(self) -> None:
        self.dead += 1
        if self.dead >= _COMPACT_MIN_DEAD and self.dead * 2 >= len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop lazily-cancelled entries and re-heapify."""
        self._heap = [e for e in self._heap if not e[2]._cancelled]
        heapify(self._heap)
        self.dead = 0
        self.compactions += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "scheduler": self.name,
            "pending": len(self._heap),
            "pushes": self.pushes,
            "dead": self.dead,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventQueue pending={len(self._heap)} dead={self.dead}>"


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which the kernel runs its
    callbacks (typically resuming waiting processes) at the current instant.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_defused",
                 "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The success value, or raises the failure exception."""
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._sequence += 1
        sim._nq.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exc`` thrown in."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        sim._sequence += 1
        sim._nq.append(self)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as handled even if no process waits on the event."""
        self._defused = True
        return self

    def cancel(self) -> "Event":
        """Discard a scheduled firing: the kernel skips this event on pop.

        Only valid for events whose outcome nobody still observes (e.g. a
        retransmit timer whose reply came first).  The queue entry stays where
        it is — sequence numbers, and therefore same-instant ordering of
        every other event, are untouched — but its callbacks never run.
        The queue counts the corpse and compacts itself once enough
        accumulate, so cancel-heavy workloads (retransmit timers that
        almost always lose their race) keep the queue bounded.
        """
        self._cancelled = True
        self.sim._queue.note_cancel()
        return self

    # -- internal ---------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks; called by the kernel when the event fires."""
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            self._defused = True
            for callback in callbacks:
                callback(self)
        elif self._exc is not None and not self._defused:
            self.sim._orphan_failures.append(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds of virtual time from creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__: timeouts are the most-allocated event kind.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        sim._sequence += 1
        now = sim.now
        when = now + delay
        if when > now:
            sim._qpush(when, sim._sequence, self)
        else:
            # Zero (or underflowing) delay: due this very instant, so it
            # joins the cascade deque in creation order.
            sim._nq.append(self)


class _WakeSignal:
    """Shared pseudo-event delivered when a process starts or wakes from a
    direct sleep: a success carrying ``None``."""

    _exc: Optional[BaseException] = None
    _value: Any = None
    _defused = True


_WAKE = _WakeSignal()


class Process(Event):
    """A generator-based simulated process.

    A process is itself an event that fires when the generator finishes;
    the event's value is the generator's return value.

    Yielding a plain ``float`` is a sleep: the kernel files the process
    itself in the event queue, due that many seconds from now — same
    sequence number, same ``now + delay`` arithmetic and same queue position
    as a :class:`Timeout`, but with no event object, callback list or
    callback hop.  ``yield sim.timeout(d)`` remains for timers that are
    raced, cancelled, shared or carry a value.
    """

    __slots__ = ("generator", "name", "_started", "_wake_at")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._started = False
        # Due time of the direct sleep in progress.
        self._wake_at: Optional[float] = None
        # Schedule ourselves for the start resume; no separate init event.
        sim._sequence += 1
        sim._nq.append(self)

    # -- internal ---------------------------------------------------------

    def _process(self) -> None:
        if self._wake_at is not None:
            self._wake_at = None
            self._resume(_WAKE)
        elif self._started:
            Event._process(self)
        else:
            self._started = True
            self._resume(_WAKE)

    def _resume(self, event: Event) -> None:
        generator = self.generator
        sim = self.sim
        # Expose which process is executing: per-process observability state
        # (the tracer's span stacks) keys off this.  Resumes never nest, but
        # save/restore keeps the attribute honest regardless.
        prev_active = sim.active_process
        sim.active_process = self
        try:
            while True:
                if event._exc is None:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._exc)
                if isinstance(target, float):
                    # Direct sleep: Timeout.__init__'s scheduling, with the
                    # process itself as the queue entry.
                    if target < 0:
                        raise SimulationError(f"negative timeout delay {target!r}")
                    sim._sequence += 1
                    now = sim.now
                    when = now + target
                    if when > now:
                        sim._qpush(when, sim._sequence, self)
                    else:
                        sim._nq.append(self)
                    self._wake_at = when
                    return
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                if target.sim is not sim:
                    raise SimulationError(
                        f"process {self.name!r} yielded event from another simulator"
                    )
                callbacks = target.callbacks
                if callbacks is None:
                    # Already processed: deliver its outcome synchronously.
                    event = target
                    continue
                callbacks.append(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:
            self.fail(exc)
        finally:
            sim.active_process = prev_active


class Condition(Event):
    """Waits for every one of ``events``.

    Succeeds with the list of constituent events, in their original order.
    Fails as soon as any constituent fails.
    """

    __slots__ = ("events", "_needed")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._needed = len(self.events)
        if not self.events:
            self.succeed([])
            return
        check = self._check
        for event in self.events:
            event.add_callback(check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._needed -= 1
        if self._needed == 0:
            self.succeed(list(self.events))


# The kernel's registry instruments, published as sim.kernel.<suffix>.
INSTRUMENTS = {
    "events": ("counter", lambda sim: sim._sequence),
    "cascade_events": ("counter", lambda sim: sim._sequence - sim._queue.pushes),
    "pending": ("gauge", lambda sim: sim.pending),
    "queue": ("gauge", lambda sim: sim._queue.stats()),
}


class Simulator:
    """The event queue, virtual clock and process factory."""

    def __init__(self):
        self.now: float = 0.0
        self._sequence = 0
        # Future events, ordered by (time, sequence).
        self._queue = EventQueue()
        self._qpush = self._queue.push
        # ``timeout(delay, value=None)``: an event firing ``delay``
        # seconds from now.  A bound constructor, not a method: timeouts
        # are the most-created event kind and a factory-call frame is
        # measurable at campus scale.
        self.timeout = partial(Timeout, self)
        # Events due at exactly `now`: same-timestamp cascades dispatch
        # FIFO from this deque without touching the time-ordered queue.
        self._nq: deque = deque()
        self._orphan_failures: List[Event] = []
        self.active_process: Optional[Process] = None
        # Observability hooks (deferred import: obs builds on sim).  The
        # tracer is the shared zero-cost null recorder until a
        # TraceRecorder is attached; the metrics registry is always live.
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import NULL_RECORDER

        self.tracer = NULL_RECORDER
        self.metrics = MetricsRegistry()
        self.metrics.attach("sim.kernel", self, INSTRUMENTS)

    @property
    def pending(self) -> int:
        """Events waiting to fire (scheduled plus same-instant cascade)."""
        return len(self._queue) + len(self._nq)

    @property
    def scheduler_stats(self) -> dict:
        """The event queue's occupancy and dead-event statistics."""
        stats = dict(self._queue.stats())
        stats["cascade_events"] = self._sequence - self._queue.pushes
        stats["events"] = self._sequence
        return stats

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """Create a pending event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a process; returns its completion event."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when every event in ``events`` has fired."""
        return Condition(self, events)

    # -- scheduling ---------------------------------------------------------

    def _raise_orphans(self) -> None:
        """Raise the first orphaned failure; never silently drop the rest."""
        orphans = self._orphan_failures
        first = orphans[0]
        rest = orphans[1:]
        del orphans[:]
        exc = first._exc
        for extra in rest:
            _log.warning(
                "additional orphaned process failure at t=%s suppressed behind %r: %r",
                self.now, exc, extra._exc,
            )
            if hasattr(exc, "add_note"):  # pragma: no branch - py3.11+
                exc.add_note(f"additional orphaned failure at t={self.now}: {extra._exc!r}")
        raise exc

    def step(self) -> None:
        """Process the single next event; raises orphaned process failures."""
        nq = self._nq
        if nq:
            event = nq.popleft()
        else:
            entry = self._queue.pop_due(None, nq)
            if entry is None:
                raise IndexError("step() on an empty event queue")
            self.now = entry[0]
            event = entry[2]
        if not event._cancelled:
            event._process()
        if self._orphan_failures:
            self._raise_orphans()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock passes ``until``."""
        nq = self._nq
        popleft = nq.popleft
        pop_due = self._queue.pop_due
        orphans = self._orphan_failures
        while True:
            while nq:
                event = popleft()
                if event._cancelled:
                    continue
                event._process()
                if orphans:
                    self._raise_orphans()
            entry = pop_due(until, nq)
            if entry is None:
                break
            self.now = entry[0]
            event = entry[2]
            if event._cancelled:
                continue
            event._process()
            if orphans:
                self._raise_orphans()
        if until is not None and self.now < until:
            # Queue empty or next event past the horizon (it stays
            # scheduled, sequence intact): park the clock exactly at the
            # horizon either way.
            self.now = until

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` fires; returns its value or raises its failure.

        This is the synchronous facade used by examples and tests: wrap one
        foreground operation in a process and drive the world until it is
        done.  ``limit`` bounds runaway simulations.
        """
        event.defuse()
        nq = self._nq
        popleft = nq.popleft
        pop_due = self._queue.pop_due
        orphans = self._orphan_failures
        while event.callbacks is not None:
            if nq:
                popped = popleft()
            else:
                entry = pop_due(limit, nq)
                if entry is None:
                    if len(self._queue):
                        # The next event is past the limit; it stays queued.
                        raise SimulationError(
                            f"simulation exceeded time limit {limit}"
                        )
                    raise SimulationError(
                        f"event heap drained at t={self.now} before event fired"
                    )
                self.now = entry[0]
                popped = entry[2]
            if popped._cancelled:
                continue
            popped._process()
            if orphans:
                self._raise_orphans()
        return event.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.pending}>"
