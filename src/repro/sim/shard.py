"""Sharded parallel simulation: per-cluster event loops with conservative
bridge lookahead.

The campus topology (Fig. 2-2) hands the simulator its partition for free:
clusters are semi-autonomous islands whose only mutual coupling is traffic
crossing a bridge onto the backbone, and a bridge adds a *known minimum*
forwarding delay.  That delay is exactly the lookahead a conservative
(Chandy-Misra-Bryant style) parallel discrete-event simulation needs: a
shard may freely execute events up to ``min(neighbor granted horizon) +
bridge latency`` because no neighbor can affect it sooner.

Execution model — *replicated campus, partitioned activity*:

* The coordinator builds the whole campus once (the normal, deterministic
  setup path), then forks one worker per shard.  Every worker therefore
  holds a bit-identical replica of the full campus; copy-on-write keeps
  this cheap.
* Each worker *owns* a subset of cluster segments.  Shard 0 (the "hub")
  additionally owns the backbone and every bridge, so all cross-shard
  carriage is hub-mediated: spoke -> hub -> spoke.  Ownership is enforced
  purely at the network layer — only owned users are launched, and
  :meth:`repro.net.topology.Network.send` hands a transfer off to the
  owning shard the moment it reaches a non-owned segment.  Replica objects
  for non-owned hosts simply never see an event.
* A handoff is a timestamped packet ``(time, src shard, seq, hop index,
  kind, deliver, datagram)`` over an OS pipe.  The receiving shard resumes
  the route *exactly* where the sender stopped: the entry bridge's
  forwarding delay is scheduled at the absolute instant ``time +
  forwarding_delay`` — the same float the single-process kernel would have
  computed — so merged virtual outputs are byte-identical to the
  single-process run (deterministic ``(time, shard, seq)`` injection
  order breaks cross-shard ties).

Synchronization — synchronized conservative windows (bounded-lag family):

* Execution proceeds in lockstep windows.  At window ``j`` every worker
  reads the same double-buffered shared-memory snapshot and computes the
  same global lower bound on any future event anywhere::

      LBTS = min over workers of min(next queued event,
                                     earliest in-flight packet resume)

  Each worker then executes strictly below ``LBTS + la`` (``la`` = the
  minimum bridge delay charged to packets *entering* it): every event
  executed anywhere this window has a timestamp at or after LBTS, so
  every emission resumes at or after ``LBTS + la`` — nothing can land
  inside a window being executed.  Idle think-time gaps in the workload
  cost one window regardless of length, because LBTS leaps straight to
  the next queued event.
* One spin barrier (per-worker monotone round counters) separates
  windows.  State is double-buffered by window parity: window ``j``
  writes slot ``j & 1`` and reads slot ``(j - 1) & 1``; the barrier
  gates slot reuse, so readers never race writers and every worker
  provably computes the identical LBTS each round — the engine is
  deterministic by construction.
* A safe cap stops the windows from overrunning the (not yet known)
  campus end: ``cap = max over workers of`` a lower bound on each
  worker's next execution (its completion instant once done).  The cap
  is provably within ``[LBTS, T_end]``, so nothing the single-process
  run would have left queued gets executed, while the worker owning
  LBTS always advances (liveness).
* Termination: each worker publishes the instant its last owned user
  finished; once every flag is set, ``T_end = max`` of those instants —
  bit-for-bit the moment ``run_campus_day``'s ``all_of`` would have
  fired — and everyone parks exactly there once LBTS clears it.

Scope: the standard campus topology only (``cluster<i>`` segments bridged
to one backbone), no fault plans, no replication, and the on-close write
policy.  Anything else transparently degrades to the single-process
kernel with a warning metric (see :func:`plan_shards`).  This module is
imported lazily — an unsharded run never touches it.
"""

from __future__ import annotations

import math
import time as _wall
import warnings
from collections import deque as _deque
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "ShardConfig",
    "ShardPlan",
    "plan_shards",
    "ShardRouter",
    "run_sharded_campus_day",
]

_INF = math.inf


@dataclass(frozen=True)
class ShardConfig:
    """Selects and tunes sharded execution (``SystemConfig(sharding=...)``).

    ``workers`` is clamped to the cluster count.  ``spin`` busy-loop
    iterations are tried before the sync loop starts sleeping
    ``poll_sleep`` seconds (doubling up to ``max_sleep``) — spin high on
    dedicated multicore hosts, low on shared or single-core ones.
    ``audit`` keeps per-worker lookahead-violation counters (every packet
    resume and window bound checked against the granted horizon).
    ``assignment`` optionally maps each cluster index to a shard id;
    default is round-robin (cluster ``i`` -> shard ``i % workers``).
    """

    workers: int = 2
    spin: int = 200
    poll_sleep: float = 0.0002
    max_sleep: float = 0.002
    audit: bool = False
    assignment: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class ShardPlan:
    """A validated partition of the campus onto event-loop workers."""

    workers: int
    clusters: int
    assignment: Tuple[int, ...]             # cluster index -> shard id
    owned_segments: Tuple[FrozenSet[str], ...]
    lookahead: Tuple[float, ...]            # per-shard arrival lookahead

    @property
    def hub(self) -> int:
        """The shard owning the backbone and every bridge."""
        return 0

    def clusters_of(self, shard: int) -> List[int]:
        """Cluster indices assigned to ``shard``."""
        return [c for c, s in enumerate(self.assignment) if s == shard]


def plan_shards(config, network, sharding: Optional[ShardConfig] = None):
    """Partition the campus, or explain why it cannot be partitioned.

    Returns ``(plan, None)`` on success or ``(None, reason)`` when the
    configuration must fall back to the single-process kernel: a single
    cluster, a zero-lookahead bridge, fault plans, replication, the
    deferred write policy (its flush daemon would run past the campus end
    time), a non-standard topology, or a platform without ``fork``.
    """
    sharding = sharding if sharding is not None else config.sharding
    if sharding is None:
        return None, "sharding not configured"
    if sharding.workers < 1:
        return None, f"workers must be >= 1, got {sharding.workers}"
    if config.clusters < 2:
        return None, "single-cluster campus: nothing to shard"
    if config.replication is not None:
        return None, "replication is not supported under sharding"
    if getattr(config, "erasure", None) is not None:
        return None, "erasure coding is not supported under sharding"
    if config.fault_plan is not None:
        return None, "fault plans are not supported under sharding"
    if config.write_policy != "on-close":
        return None, f"write policy {config.write_policy!r} is not supported under sharding"
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None, "platform lacks fork(); sharding requires copy-on-write workers"

    # The standard campus shape: cluster<i> segments joined to one backbone
    # by one bridge each, every bridge with a positive forwarding delay
    # (that delay *is* the lookahead; zero would mean zero-width windows).
    expected = {f"cluster{i}" for i in range(config.clusters)} | {"backbone"}
    if set(network.segments) != expected:
        return None, "non-standard topology: sharding needs cluster<i> segments plus a backbone"
    cluster_delay: Dict[int, float] = {}
    for bridge in network.bridges:
        sides = {bridge.side_a.name, bridge.side_b.name}
        if "backbone" not in sides or len(sides) != 2:
            return None, f"non-standard bridge {bridge.name!r}: sharding needs cluster<->backbone bridges"
        cluster_seg = (sides - {"backbone"}).pop()
        index = int(cluster_seg.removeprefix("cluster"))
        if bridge.forwarding_delay <= 0.0:
            return None, f"bridge {bridge.name!r} has zero lookahead (forwarding_delay <= 0)"
        delay = cluster_delay.get(index)
        cluster_delay[index] = bridge.forwarding_delay if delay is None else min(delay, bridge.forwarding_delay)
    if set(cluster_delay) != set(range(config.clusters)):
        return None, "non-standard topology: every cluster needs a backbone bridge"
    if network._faulty_segments:
        return None, "link faults installed: sharding requires a clean network"

    workers = min(sharding.workers, config.clusters)
    if sharding.assignment is not None:
        assignment = tuple(sharding.assignment)
        if len(assignment) != config.clusters or not all(0 <= s < workers for s in assignment):
            return None, "invalid explicit shard assignment"
        if not all(s in set(assignment) for s in range(workers)):
            return None, "explicit shard assignment leaves a worker empty"
    else:
        assignment = tuple(c % workers for c in range(config.clusters))

    # Arrival lookahead: the minimum delay charged to a packet *entering*
    # the shard.  A spoke receives across its own clusters' bridges; the
    # hub receives across the *sender's* bridge (a spoke hands off the
    # moment the route reaches the backbone), so its lookahead is the
    # minimum over spoke-owned clusters.
    owned: List[FrozenSet[str]] = []
    lookahead: List[float] = []
    for shard in range(workers):
        segs = {f"cluster{c}" for c, s in enumerate(assignment) if s == shard}
        if shard == 0:
            segs.add("backbone")
        owned.append(frozenset(segs))
        if workers == 1:
            las = list(cluster_delay.values())     # degenerate: unused
        elif shard == 0:
            las = [cluster_delay[c] for c, s in enumerate(assignment) if s != 0]
        else:
            las = [cluster_delay[c] for c, s in enumerate(assignment) if s == shard]
        lookahead.append(min(las))
    plan = ShardPlan(
        workers=workers,
        clusters=config.clusters,
        assignment=assignment,
        owned_segments=tuple(owned),
        lookahead=tuple(lookahead),
    )
    return plan, None


def _at_time(sim, when: float):
    """A pre-triggered event popped at the absolute instant ``when``.

    The cross-shard twin of :class:`~repro.sim.kernel.Timeout`: the sender
    recorded the handoff instant ``t``; scheduling the resume at the exact
    float ``t + forwarding_delay`` reproduces the arithmetic the
    single-process ``send`` would have performed at ``now == t``.
    """
    from repro.sim.kernel import Event

    event = Event(sim)
    event._triggered = True
    sim._sequence += 1
    if when > sim.now:
        sim._qpush(when, sim._sequence, event)
    else:
        sim._nq.append(event)
    return event


class ShardRouter:
    """Per-worker network hook: hands transfers off at shard boundaries.

    Installed as ``network.shard_router``; :meth:`Network.send` consults it
    per hop.  Outbound handoffs accumulate in per-destination outboxes the
    worker flushes between windows; inbound packets are injected as
    continuation processes that resume the route mid-hop.
    """

    def __init__(self, network, plan: ShardPlan, shard_id: int, audit: bool = False):
        self.network = network
        self.plan = plan
        self.shard_id = shard_id
        self.owned = plan.owned_segments[shard_id]
        self.audit = audit
        owner: Dict[str, int] = {}
        for shard, segs in enumerate(plan.owned_segments):
            for name in segs:
                owner[name] = shard
        self.segment_owner = owner
        self.out_seq = 0
        self.outbox: Dict[int, list] = {}
        # Earliest resume instant among packets handed off this window,
        # per destination — the "in-flight" term of the LBTS computation.
        self.window_inflight: Dict[int, float] = {}
        # Highest window bound this worker has executed; an inbound packet
        # resuming at or below it would have landed inside an
        # already-executed window (the lookahead audit's definition of a
        # violation).
        self.audit_floor = -_INF
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.violations = 0
        network.shard_router = self

    def handoff(self, datagram, kind: str, deliver: bool, hop_index: int,
                segment_name: str, bridge) -> None:
        """Queue ``datagram`` for the shard owning ``segment_name``."""
        dst = self.segment_owner[segment_name]
        self.out_seq += 1
        self.handoffs_out += 1
        now = self.network.sim.now
        resume = now + bridge.forwarding_delay
        current = self.window_inflight.get(dst)
        if current is None or resume < current:
            self.window_inflight[dst] = resume
        self.outbox.setdefault(dst, []).append(
            (now, self.shard_id, self.out_seq, hop_index, kind, deliver, datagram)
        )

    def take_outbox(self) -> Dict[int, list]:
        """Drain and return the pending per-destination packet batches."""
        if not self.outbox:
            return {}
        out, self.outbox = self.outbox, {}
        return out

    def take_window_inflight(self) -> Dict[int, float]:
        """Drain the per-destination minimum resume instants of the window."""
        out, self.window_inflight = self.window_inflight, {}
        return out

    def inject(self, packet) -> None:
        """Resume a handed-off transfer inside this shard's kernel."""
        self.handoffs_in += 1
        src, seq = packet[1], packet[2]
        self.network.sim.process(
            self._carry(packet), name=f"shard:{src}->{self.shard_id}:{seq}"
        )

    def _carry(self, packet):
        when, _src, _seq, hop_index, kind, deliver, datagram = packet
        network = self.network
        sim = network.sim
        _segments, hops = network._hops(datagram.source, datagram.destination)
        segment, bridge = hops[hop_index]
        # A handoff always happens at a bridge crossing: hop 0 is the
        # sender's own (owned) segment.
        bridge.transfers_forwarded += 1
        resume_at = when + bridge.forwarding_delay
        if self.audit and resume_at <= self.audit_floor:
            self.violations += 1
        yield _at_time(sim, resume_at)
        payload_bytes = datagram.payload_bytes
        yield from segment.transmit(payload_bytes, kind=kind)
        owned = self.owned
        index = hop_index + 1
        while index < len(hops):
            segment, bridge = hops[index]
            if segment.name not in owned:
                self.handoff(datagram, kind, deliver, index, segment.name, bridge)
                return
            bridge.transfers_forwarded += 1
            yield bridge.forwarding_delay
            yield from segment.transmit(payload_bytes, kind=kind)
            index += 1
        datagram.hops = len(hops)
        if deliver:
            network.interfaces[datagram.destination].inbox.put(datagram)


# ---------------------------------------------------------------------------
# Worker


class _ShardWorker:
    """One forked event loop: owned clusters, conservative windows."""

    def __init__(self, shard_id, plan, sharding, campus, users, shared, conns,
                 duration, warmup, stagger, seed):
        self.shard_id = shard_id
        self.plan = plan
        self.sharding = sharding
        self.campus = campus
        self.users = users
        self.shared = shared
        self.conns = conns
        self.duration = duration
        self.warmup = warmup
        self.stagger = stagger
        self.seed = seed
        self.sim = campus.sim
        self.W = plan.workers
        self.la = plan.lookahead
        if shard_id == plan.hub:
            self.in_peers = [s for s in range(self.W) if s != shard_id]
        else:
            self.in_peers = [plan.hub]
        self.out_peers = list(self.in_peers)
        self.seen = [0] * self.W           # batches drained per channel
        self.batches_sent = [0] * self.W   # batches flushed per channel
        # Inbound batches land here via the pump thread (see _pump); a
        # deque per source, appended by the pump, popped by the engine.
        self.pending = {src: _deque() for src in self.in_peers}
        self.done = False
        self.t_done = self.sim.now
        # Stats for the sim.shard.<id>.* gauges and the profile table.
        self.windows = 0
        self.horizon_waits = 0
        self.blocked_wall = 0.0
        self.run_wall = 0.0
        self.events_run = 0
        self.max_bound = -_INF

    # -- shared-state accessors -------------------------------------------
    #
    # All reads in window j come from slot (j-1) & 1, all writes go to
    # slot j & 1, and the barrier for window j gates a slot's reuse — so
    # every worker reads the identical, stable snapshot each round and
    # computes the identical LBTS and cap.

    def _next_time(self) -> float:
        if self.sim._nq:
            return self.sim.now
        when = self.sim._queue.peek_time()
        return _INF if when is None else when

    def _read_lbts(self, r: int) -> float:
        """min over workers of min(next event, in-flight packet resumes)."""
        W = self.W
        next_ev = self.shared.next_ev
        inflight = self.shared.inflight
        base = r * W
        pbase = r * W * W
        lbts = _INF
        for w in range(W):
            q = next_ev[base + w]
            row = pbase + w * W
            for d in range(W):
                v = inflight[row + d]
                if v < q:
                    q = v
            if q < lbts:
                lbts = q
        return lbts

    def _safe_cap(self, r: int, lbts: float) -> float:
        """max over workers of a lower bound on each one's next execution.

        A not-done worker's term — min(its next event, the earliest packet
        heading toward it, LBTS + its lookahead) — is a lower bound on the
        finish instant of its remaining users, and a done worker's term is
        that instant itself; so the max never exceeds the campus end time.
        Every term is also >= LBTS, so the cap never starves progress.
        """
        shared = self.shared
        W = self.W
        base = r * W
        pbase = r * W * W
        cap = -_INF
        for w in range(W):
            if shared.done[base + w]:
                term = shared.t_done[base + w]
            else:
                term = shared.next_ev[base + w]
                ahead = lbts + self.la[w]
                if ahead < term:
                    term = ahead
                for src in range(W):
                    v = shared.inflight[pbase + src * W + w]
                    if v < term:
                        term = v
            if term > cap:
                cap = term
        return cap

    # -- engine steps ------------------------------------------------------

    def _pump(self) -> None:
        """Drain every inbound packet pipe continuously (daemon thread).

        Keeping the pipes empty is what makes the peers' ``send`` calls
        deadlock-free: a window whose batches exceed the OS pipe buffer
        would otherwise block the sender mid-``_publish`` while the
        receiver waits at the barrier the sender never reaches.  Batches
        land in per-source deques; the engine still injects them only
        when the read slot's counters flag them, so determinism is
        untouched.
        """
        from multiprocessing.connection import wait

        sources = {self.conns.packet_in[src]: src for src in self.in_peers}
        conns = list(sources)
        while conns:
            for conn in wait(conns):
                try:
                    batch = conn.recv()
                except (EOFError, OSError):
                    conns.remove(conn)
                    continue
                self.pending[sources[conn]].append(batch)

    def _drain_inbound(self, r: int) -> None:
        """Drain exactly the batches the read slot's counters flag."""
        sent = self.shared.sent
        pbase = r * self.W * self.W
        batches = []
        for src in self.in_peers:
            target = sent[pbase + src * self.W + self.shard_id]
            seen = self.seen[src]
            queue = self.pending[src]
            sleep = self.sharding.poll_sleep
            while seen < target:
                # The counter proves the batch was sent; the pump just may
                # not have landed it yet.
                try:
                    batches.extend(queue.popleft())
                except IndexError:
                    started = _wall.perf_counter()
                    _wall.sleep(sleep)
                    self.blocked_wall += _wall.perf_counter() - started
                    sleep = min(sleep * 2.0, self.sharding.max_sleep)
                    continue
                seen += 1
            self.seen[src] = seen
        if not batches:
            return
        # Deterministic cross-shard tie-breaking: inject in (time, source
        # shard, per-channel sequence) order regardless of arrival order.
        batches.sort(key=lambda p: (p[0], p[1], p[2]))
        for packet in batches:
            self.router.inject(packet)
        # Materialize the continuations' first (absolutely-timed) events so
        # peek_time and the published next_ev see them.
        self.sim.run(until=self.sim.now)

    def _publish(self, j: int) -> None:
        """Flush packets, then write this window's slot and release it.

        Pipe sends happen before the ``sent`` counter store, counter
        stores before the ``rounds`` store, and peers only read the slot
        after the barrier observes ``rounds`` — so a drained counter can
        never flag a batch that is not already in the pipe.
        """
        shared = self.shared
        W = self.W
        me = self.shard_id
        s = j & 1
        base = s * W
        pbase = s * W * W
        for dst, packets in self.router.take_outbox().items():
            self.conns.packet_out[dst].send(packets)
            self.batches_sent[dst] += 1
        window_min = self.router.take_window_inflight()
        for dst in self.out_peers:
            shared.sent[pbase + me * W + dst] = self.batches_sent[dst]
            shared.inflight[pbase + me * W + dst] = window_min.get(dst, _INF)
        shared.next_ev[base + me] = self._next_time()
        shared.t_done[base + me] = self.t_done
        shared.done[base + me] = 1 if self.done else 0
        shared.rounds[me] = j + 1

    def _barrier(self, j: int) -> None:
        """Spin (then sleep, with backoff) until every worker passed j."""
        rounds = self.shared.rounds
        target = j + 1
        W = self.W
        spin = self.sharding.spin
        count = 0
        sleep = self.sharding.poll_sleep
        while True:
            arrived = True
            for w in range(W):
                if rounds[w] < target:
                    arrived = False
                    break
            if arrived:
                return
            count += 1
            if count > spin:
                started = _wall.perf_counter()
                _wall.sleep(sleep)
                self.blocked_wall += _wall.perf_counter() - started
                sleep = min(sleep * 2.0, self.sharding.max_sleep)

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        from repro.workload.synthetic import launch_campus_day

        sim = self.sim
        campus = self.campus
        plan = self.plan
        config = campus.config
        self.router = ShardRouter(campus.network, plan, self.shard_id,
                                  audit=self.sharding.audit)
        self._register_gauges()

        my_clusters = set(plan.clusters_of(self.shard_id))
        per_cluster = config.workstations_per_cluster
        owned_idx = [i for i in range(len(self.users))
                     if (i // per_cluster) in my_clusters]
        owned_set = set(owned_idx)

        wall_start = _wall.perf_counter()
        start_now = sim.now
        processes = launch_campus_day(
            campus, self.users, self.warmup + self.duration,
            stagger=self.stagger, seed=self.seed, owned=owned_set,
        )
        self.t_done = start_now
        remaining = [len(processes)]

        def on_finish(_event, remaining=remaining):
            remaining[0] -= 1
            if sim.now > self.t_done:
                self.t_done = sim.now

        for process in processes:
            process.add_callback(on_finish)

        if self.W == 1:
            # Degenerate shard count: no channels exist, so replay the
            # single-process driver verbatim — including its stop-at-the-
            # completion-instant semantics — inside the lone worker.
            warmup_end = start_now + self.warmup
            if self.warmup > 0:
                sim.run(until=warmup_end)
                campus.reset_counters()
                for user in self.users:
                    user.actions = 0
                    user.failures = 0
            for user in self.users:
                user.tracker = None
            start = sim.now
            sim.run_until_complete(
                sim.all_of(processes),
                limit=start + self.duration + self.stagger + 7200,
            )
            end = sim.now
            self.done = True
        else:
            import threading

            threading.Thread(target=self._pump, daemon=True,
                             name=f"shard-{self.shard_id}-pump").start()
            start, end = self._windowed_day(start_now, remaining)
        self.wall = _wall.perf_counter() - wall_start

        partial = self._partial(owned_idx, sorted(my_clusters), start, end)
        self.conns.control.send(("partial", partial))
        # Every worker leaves the window loop at the same round, so nobody
        # is left spinning in a barrier: just wait for the stop token.
        while True:
            message = self.conns.control.recv()
            if message[0] == "stop":
                return

    def _windowed_day(self, start_now: float, remaining: List[int]):
        """The conservative-window engine; returns ``(start, end)``."""
        sim = self.sim
        campus = self.campus
        me = self.shard_id
        in_warmup = self.warmup > 0
        warmup_end = start_now + self.warmup
        if in_warmup:
            start = None
            limit = _INF
        else:
            for user in self.users:
                user.tracker = None
            start = start_now
            limit = start + self.duration + self.stagger + 7200.0
        t_end = None
        j = 0
        while True:
            # Window j: read slot (j-1) & 1.  Window 0 reads slot 1 — the
            # bootstrap values (next_ev = t_done = post-setup clock,
            # in-flight = +inf): sound, because no replica holds an event
            # before the post-setup instant.
            r = (j - 1) & 1
            lbts = self._read_lbts(r)
            base = r * self.W
            done_arr = self.shared.done
            if t_end is None and all(done_arr[base + w] for w in range(self.W)):
                t_done = self.shared.t_done
                t_end = max(t_done[base + w] for w in range(self.W))
            if t_end is not None and lbts > t_end:
                # Nothing anywhere (queued or in flight) at or before the
                # campus end: drain the last in-flight packets (they all
                # resume past t_end — they stay queued, exactly like the
                # single-process run leaves them) and park on the instant
                # the last user finished.
                self._drain_inbound(r)
                if sim.now < t_end:
                    sim.run(until=t_end)
                return start, t_end
            if in_warmup and lbts > warmup_end:
                # Same argument at the warm-up boundary; every worker
                # crosses it at the same round, at the same instant.
                self._drain_inbound(r)
                if sim.now < warmup_end:
                    sim.run(until=warmup_end)
                campus.reset_counters()
                for user in self.users:
                    user.actions = 0
                    user.failures = 0
                    user.tracker = None
                start = sim.now
                limit = start + self.duration + self.stagger + 7200.0
                in_warmup = False
                # Fall through: the same round continues, un-capped.
            if lbts > limit:
                from repro.errors import SimulationError

                raise SimulationError(f"simulation exceeded time limit {limit}")
            self.windows += 1
            cap = self._safe_cap(r, lbts)
            bound = min(math.nextafter(lbts + self.la[me], -_INF), cap)
            if t_end is not None:
                bound = min(bound, t_end)
            elif in_warmup:
                bound = min(bound, warmup_end)
            self._drain_inbound(r)
            nxt = self._next_time()
            if nxt <= bound and bound >= sim.now:
                started = _wall.perf_counter()
                before = sim._sequence
                sim.run(until=bound)
                self.events_run += sim._sequence - before
                self.run_wall += _wall.perf_counter() - started
                if bound > self.max_bound:
                    self.max_bound = bound
                    self.router.audit_floor = bound
            elif nxt > bound and not math.isinf(nxt):
                self.horizon_waits += 1
            if not self.done and remaining[0] == 0:
                self.done = True
            self._publish(j)
            self._barrier(j)
            j += 1

    def _register_gauges(self) -> None:
        metrics = self.sim.metrics
        prefix = f"sim.shard.{self.shard_id}"
        metrics.gauge(f"{prefix}.events_per_s",
                      lambda: round(self.events_run / self.run_wall) if self.run_wall else 0)
        metrics.counter(f"{prefix}.horizon_waits", lambda: self.horizon_waits)
        metrics.gauge(f"{prefix}.blocked_pct", lambda: round(
            100.0 * self.blocked_wall / self.wall, 2) if getattr(self, "wall", 0) else 0.0)
        metrics.counter(f"{prefix}.handoffs", lambda: {
            "out": self.router.handoffs_out, "in": self.router.handoffs_in})

    def _partial(self, owned_idx, my_clusters, start, end) -> Dict[str, Any]:
        campus = self.campus
        per_server = {}
        for cluster in my_clusters:
            server = campus.servers[cluster]
            per_server[cluster] = {
                "name": server.host.name,
                "calls": dict(server.call_mix.as_dict()),
                "cpu": server.host.cpu_utilization(start, end),
                "peak": server.host.cpu.utilization.peak_utilization(),
                "disk": server.host.disk_utilization(start, end),
            }
        owned_ws = [campus.workstations[i] for i in owned_idx]
        owned_users = [self.users[i] for i in owned_idx]
        return {
            "shard": self.shard_id,
            "start": start,
            "end": end,
            "t_done": self.t_done,
            "actions": sum(u.actions for u in owned_users),
            "failures": sum(u.failures for u in owned_users),
            "hits": sum(ws.venus.cache.hits for ws in owned_ws),
            "misses": sum(ws.venus.cache.misses for ws in owned_ws),
            "per_server": per_server,
            "backbone_bytes": (campus.network.total_bytes_on("backbone")
                               if self.shard_id == self.plan.hub else 0),
            "stats": {
                "shard": self.shard_id,
                "clusters": list(my_clusters),
                "events": self.events_run,
                "events_per_s": round(self.events_run / self.run_wall) if self.run_wall else 0,
                "windows": self.windows,
                "horizon_waits": self.horizon_waits,
                "blocked_wall_s": round(self.blocked_wall, 3),
                "blocked_pct": round(100.0 * self.blocked_wall / self.wall, 2) if self.wall else 0.0,
                "wall_s": round(self.wall, 3),
                "handoffs_out": self.router.handoffs_out,
                "handoffs_in": self.router.handoffs_in,
                "lookahead_violations": self.router.violations,
                "max_bound": self.max_bound,
            },
        }


def _worker_main(shard_id, plan, sharding, campus, users, shared, conns,
                 duration, warmup, stagger, seed) -> None:
    import os as _os
    if _os.environ.get("REPRO_SHARD_DEBUG"):
        import faulthandler
        faulthandler.dump_traceback_later(int(_os.environ["REPRO_SHARD_DEBUG"]),
                                          exit=True)
    try:
        worker = _ShardWorker(shard_id, plan, sharding, campus, users, shared,
                              conns, duration, warmup, stagger, seed)
        worker.run()
    except BaseException:
        import traceback

        try:
            conns.control.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise


# ---------------------------------------------------------------------------
# Coordinator


class _SharedState:
    """Double-buffered lock-free window state: single writer per slot.

    Every array except ``rounds`` is duplicated by window parity: window
    ``j`` writes slot ``j & 1`` and reads slot ``(j - 1) & 1``, and the
    window-``j`` barrier gates a slot's reuse, so readers always see a
    stable, complete snapshot (CPython's GIL plus x86 total-store order
    make the raw 8-byte slots safe to read lock-free).  ``rounds`` is the
    barrier itself — per-worker monotone window counters whose store
    releases that worker's slot writes.

    Time slots boot at the post-setup clock ``start``: no replica holds
    an event before it, so "nothing earlier than start" is a sound
    initial promise — and a non-degenerate one (a ``-inf`` seed would
    pin every ``min`` forever).
    """

    def __init__(self, ctx, workers: int, start: float):
        W = workers
        self.rounds = ctx.RawArray("q", [0] * W)
        self.next_ev = ctx.RawArray("d", [start] * (2 * W))
        self.t_done = ctx.RawArray("d", [start] * (2 * W))
        self.done = ctx.RawArray("b", [0] * (2 * W))
        self.inflight = ctx.RawArray("d", [_INF] * (2 * W * W))
        self.sent = ctx.RawArray("q", [0] * (2 * W * W))


class _WorkerConns:
    """The pipe endpoints one worker uses (inherited across fork)."""

    def __init__(self, control, packet_in: Dict[int, Any], packet_out: Dict[int, Any]):
        self.control = control
        self.packet_in = packet_in
        self.packet_out = packet_out


def merge_partials(partials: Sequence[Dict[str, Any]], server_count: int) -> Dict[str, Any]:
    """Assemble the :func:`run_campus_day` summary from worker partials.

    Mirrors the single-process arithmetic operation for operation —
    integer sums, the same sorted-label normalization, first-wins argmax
    over server index order — so equal inputs give bit-equal floats.
    """
    by_shard = {p["shard"]: p for p in partials}
    start = partials[0]["start"]
    end = partials[0]["end"]
    per_server: Dict[int, Dict[str, Any]] = {}
    for partial in by_shard.values():
        per_server.update({int(k): v for k, v in partial["per_server"].items()})
    totals: Dict[str, int] = {}
    for index in range(server_count):
        for label, count in per_server[index]["calls"].items():
            totals[label] = totals.get(label, 0) + count
    grand = sum(totals.values())
    call_mix = {k: v / grand for k, v in sorted(totals.items())} if grand else {}
    hits = sum(p["hits"] for p in by_shard.values())
    misses = sum(p["misses"] for p in by_shard.values())
    total = hits + misses
    busiest = max(range(server_count), key=lambda i: per_server[i]["cpu"])
    return {
        "duration": end - start,
        "actions": sum(p["actions"] for p in by_shard.values()),
        "failures": sum(p["failures"] for p in by_shard.values()),
        "call_mix": call_mix,
        "hit_ratio": hits / total if total else 0.0,
        "busiest_server": per_server[busiest]["name"],
        "busiest_cpu": per_server[busiest]["cpu"],
        "busiest_cpu_peak": per_server[busiest]["peak"],
        "busiest_disk": per_server[busiest]["disk"],
        "cross_cluster_bytes": sum(p["backbone_bytes"] for p in by_shard.values()),
    }


def _fallback(campus, reason: str):
    warnings.warn(f"sharding disabled, running single-process: {reason}",
                  RuntimeWarning, stacklevel=3)
    campus.sim.metrics.gauge("sim.shard.fallback", lambda reason=reason: reason)
    return None


def run_sharded_campus_day(campus, users, duration: float = 3600.0,
                           warmup: float = 1800.0, stagger: float = 30.0,
                           seed: int = 4242,
                           stats_sink: Optional[list] = None) -> Dict[str, Any]:
    """The sharded twin of :func:`repro.workload.run_campus_day`.

    Builds nothing: the caller's fully-provisioned campus is forked into
    ``plan.workers`` copy-on-write replicas, each running its owned
    clusters under conservative bridge lookahead.  Returns a summary
    byte-identical to the single-process driver's; per-worker engine
    statistics are appended to ``stats_sink`` when given.  Falls back to
    the single-process driver (with a warning and a ``sim.shard.fallback``
    gauge) whenever :func:`plan_shards` refuses the configuration.
    """
    from repro.workload.synthetic import _run_campus_day_single

    sharding = campus.config.sharding or ShardConfig()
    plan, reason = plan_shards(campus.config, campus.network, sharding)
    if plan is not None and (campus.availability is not None
                             or campus.fault_scheduler is not None):
        # Live fault controls (ops console) install availability tracking
        # without a config-level plan; those hooks are process-global.
        plan, reason = None, "live fault controls installed"
    if plan is None:
        _fallback(campus, reason)
        return _run_campus_day_single(campus, users, duration=duration,
                                      warmup=warmup, stagger=stagger)

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    shared = _SharedState(ctx, plan.workers, campus.sim.now)
    # Directed packet pipes exist only where packets can flow: spoke <->
    # hub.  Control pipes are per worker.
    recv_end: Dict[Tuple[int, int], Any] = {}
    send_end: Dict[Tuple[int, int], Any] = {}
    hub = plan.hub
    for spoke in range(plan.workers):
        if spoke == hub:
            continue
        for src, dst in ((spoke, hub), (hub, spoke)):
            r, w = ctx.Pipe(duplex=False)
            recv_end[(src, dst)] = r
            send_end[(src, dst)] = w
    controls = []
    processes = []
    for shard_id in range(plan.workers):
        parent_conn, child_conn = ctx.Pipe()
        controls.append(parent_conn)
        packet_in = {src: recv_end[(src, dst)]
                     for (src, dst) in recv_end if dst == shard_id}
        packet_out = {dst: send_end[(src, dst)]
                      for (src, dst) in send_end if src == shard_id}
        conns = _WorkerConns(child_conn, packet_in, packet_out)
        processes.append(ctx.Process(
            target=_worker_main,
            args=(shard_id, plan, sharding, campus, users, shared, conns,
                  duration, warmup, stagger, seed),
            daemon=True,
            name=f"shard-{shard_id}",
        ))
    for process in processes:
        process.start()

    partials: Dict[int, Dict[str, Any]] = {}
    error: Optional[str] = None
    try:
        while len(partials) < plan.workers and error is None:
            alive_progress = False
            for shard_id, conn in enumerate(controls):
                if conn.poll(0.02):
                    kind, payload = conn.recv()
                    if kind == "partial":
                        partials[payload["shard"]] = payload
                    else:
                        error = payload
                    alive_progress = True
            if error is None and not alive_progress:
                for shard_id, process in enumerate(processes):
                    if shard_id not in partials and not process.is_alive():
                        error = (f"shard worker {shard_id} exited with code "
                                 f"{process.exitcode} before reporting")
                        break
    finally:
        for conn in controls:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    if error is not None:
        raise RuntimeError(f"sharded simulation failed:\n{error}")

    ordered = [partials[s] for s in range(plan.workers)]
    if stats_sink is not None:
        stats_sink.extend(p["stats"] for p in ordered)
    return merge_partials(ordered, len(campus.servers))
