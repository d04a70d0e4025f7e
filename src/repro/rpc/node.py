"""The RPC endpoint: connection establishment, calls, and server structure.

One :class:`RpcNode` sits on every host.  It provides:

* **Mutual authentication** at connect time (§3.4): the three-message
  handshake from :mod:`repro.crypto.handshake`, driven over the simulated
  network with CPU charged for the crypto.
* **Encrypted calls** with whole-file transfer as a side effect (§3.5.3):
  the marshalled body and the file payload are sealed under the session key
  and carried in one logical transfer.
* **At-most-once semantics**: servers deduplicate retransmitted calls by
  (connection, sequence) and replay the kept reply, so datagram loss and
  client retries never double-execute a store.  Every call carries the
  caller's cumulative ``acked``; the server keeps only the replies above
  that floor and drops any call at or below it.
* **Both server structures** from the paper: ``server_mode="process"``
  models the prototype's one-Unix-process-per-client-connection design
  (serial per connection, a context-switch tax per call, a hard cap on
  processes — the Unix resource limit that capped client/server ratios);
  ``server_mode="lwp"`` models the revised single-process server with
  lightweight threads (no switch tax, no cap, shared state).

Handlers are **generator functions** ``handler(connection, args, payload)``
returning ``(result, reply_payload)``; they charge their own CPU/disk time
by yielding, e.g. ``yield from host.compute(...)``.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.crypto.handshake import ClientHandshake, ServerHandshake
from repro.errors import (
    AuthenticationFailure,
    IntegrityError,
    NoRoute,
    NotAuthenticated,
    ReproError,
    ServerUnavailable,
)
from repro.hosts import Host
from repro.net.packet import Datagram
from repro.rpc import marshal
from repro.rpc.connection import Connection
from repro.rpc.costs import EncryptionMode, RpcCosts
from repro.rpc.messages import (
    Envelope,
    Kind,
    decode_body,
    encode_error,
    maybe_raise,
)
from repro.obs.trace import _NULL_SPAN
from repro.sim.kernel import Event
from repro.sim.metrics import Counter
from repro.sim.rand import WorkloadRandom
from repro.sim.resources import Store

__all__ = ["RpcNode", "Handler"]

Handler = Callable[..., Generator]

_IN_PROGRESS = object()
_EXPIRED = object()  # what a reply event yields when its attempt timed out


def _expire(timer: Event) -> None:
    """Retransmit-timer callback: time out the reply event it carries."""
    event = timer._value
    if not event._triggered:
        event.succeed(_EXPIRED)


class RpcNode:
    """The RPC endpoint living on one host."""

    def __init__(
        self,
        host: Host,
        costs: Optional[RpcCosts] = None,
        transport: str = "datagram",
        server_mode: str = "lwp",
        encryption: str = EncryptionMode.HARDWARE,
        auth_key_lookup: Optional[Callable[[str], bytes]] = None,
        max_server_processes: Optional[int] = None,
        functional_payload_crypto: bool = True,
        payload_fast_path: bool = True,
        rng: Optional[WorkloadRandom] = None,
    ):
        if transport not in ("datagram", "stream"):
            raise ValueError(f"unknown transport {transport!r}")
        if server_mode not in ("lwp", "process"):
            raise ValueError(f"unknown server_mode {server_mode!r}")
        self.host = host
        self.sim = host.sim
        self.costs = costs or RpcCosts()
        self.transport = transport
        self.server_mode = server_mode
        self.encryption = encryption
        self.auth_key_lookup = auth_key_lookup
        self.max_server_processes = max_server_processes
        self.functional_payload_crypto = functional_payload_crypto
        self.payload_fast_path = payload_fast_path
        self.rng = rng or WorkloadRandom(zlib.crc32(host.name.encode()))

        self.services: Dict[str, Handler] = {}
        self.connections: Dict[str, Connection] = {}
        self._pending: Dict[Tuple[str, int], Event] = {}
        self._hs_pending: Dict[Tuple[str, str], Event] = {}
        self._server_handshakes: Dict[str, Tuple[ServerHandshake, str, Envelope, str]] = {}
        self._worker_queues: Dict[str, Store] = {}
        self._reply_cache: Dict[str, Dict[int, Any]] = {}
        self._conn_counter = 0

        self.calls_received = Counter(f"calls-rx:{host.name}")
        self.calls_sent = Counter(f"calls-tx:{host.name}")
        self.handshakes_completed = 0
        self.retransmissions = 0
        self.retransmits = Counter(f"retransmits:{host.name}")  # by destination
        self.corrupt_rejected = 0  # messages whose MAC/unmarshal check failed
        self.replies_unroutable = 0  # replies a partition cut off mid-call
        self.stale_duplicates = 0  # calls dropped at or below their connection's floor

        # Registry instruments: providers are closures over self, so they
        # keep reading the live objects across counter resets.
        metrics = self.sim.metrics
        prefix = f"rpc.{host.name}"
        metrics.counter(f"{prefix}.calls_received", lambda: self.calls_received)
        metrics.counter(f"{prefix}.calls_sent", lambda: self.calls_sent)
        metrics.gauge(f"{prefix}.handshakes_completed",
                      lambda: self.handshakes_completed)
        metrics.gauge(f"{prefix}.retransmissions", lambda: self.retransmissions)
        metrics.counter(f"{prefix}.retransmits", lambda: self.retransmits)
        metrics.gauge(f"{prefix}.corrupt_rejected", lambda: self.corrupt_rejected)
        metrics.gauge(f"{prefix}.replies_unroutable", lambda: self.replies_unroutable)
        metrics.gauge(f"{prefix}.stale_duplicates", lambda: self.stale_duplicates)
        metrics.gauge(f"{prefix}.replies_kept", lambda: sum(
            reply is not _IN_PROGRESS
            for cache in self._reply_cache.values() for reply in cache.values()))
        metrics.gauge(f"{prefix}.connections", lambda: len(self.connections))
        # Per-procedure round-trip latency distributions, created lazily on
        # first call and registered as rpc.<host>.latency.<procedure>.
        self._latency_bags: Dict[str, Any] = {}

        self.sim.process(self._dispatch_loop(), name=f"rpc:{host.name}")

    # ------------------------------------------------------------------
    # service registration
    # ------------------------------------------------------------------

    def register(self, procedure: str, handler: Handler) -> None:
        """Expose ``handler`` under ``procedure``; see module docstring."""
        self.services[procedure] = handler

    # ------------------------------------------------------------------
    # client side: connect and call
    # ------------------------------------------------------------------

    def connect(
        self, server_name: str, username: str, user_key: bytes
    ) -> Generator[Any, Any, Connection]:
        """Establish a mutually authenticated connection (a generator).

        Raises :class:`AuthenticationFailure` when either side fails the
        handshake and :class:`ServerUnavailable` when the server is down,
        unreachable or out of per-client processes.
        """
        self._conn_counter += 1
        conn_id = f"{self.host.name}>{server_name}#{self._conn_counter}"
        conn = Connection(conn_id, self.host.name, server_name, username, self.encryption)

        setup_cpu = (
            self.costs.stream_setup_cpu
            if self.transport == "stream"
            else self.costs.datagram_setup_cpu
        ) + self.costs.handshake_cpu
        yield from self.host.compute(setup_cpu)

        entropy = f"{self.host.name}|{conn_id}|{self.sim.now!r}".encode()
        handshake = ClientHandshake(username, user_key, entropy)

        hello_user, hello = handshake.hello()
        reply = yield from self._handshake_exchange(
            conn_id,
            server_name,
            # The note carries the requested per-connection encryption mode.
            Envelope(Kind.HS_HELLO, conn_id, body=hello, username=hello_user,
                     note=self.encryption),
            phase="1",
        )
        if reply.kind == Kind.HS_FAIL:
            raise self._refusal(reply)
        confirm = handshake.verify_server(reply.body)

        reply = yield from self._handshake_exchange(
            conn_id,
            server_name,
            Envelope(Kind.HS_CONFIRM, conn_id, body=confirm),
            phase="2",
        )
        if reply.kind == Kind.HS_FAIL:
            raise self._refusal(reply)

        conn.establish(handshake.session_key)
        self.connections[conn_id] = conn
        self.handshakes_completed += 1
        return conn

    @staticmethod
    def _refusal(reply: Envelope) -> Exception:
        if reply.note == "full":
            return ServerUnavailable("server out of per-client processes")
        return AuthenticationFailure("authentication failed")

    def _handshake_exchange(
        self, conn_id: str, server_name: str, envelope: Envelope, phase: str
    ) -> Generator[Any, Any, Envelope]:
        return (yield from self._send_and_wait(
            envelope, server_name, self._hs_pending, (conn_id, phase),
            expect_bytes=256,
        ))

    def call(
        self,
        conn: Connection,
        procedure: str,
        args: Optional[Dict[str, Any]] = None,
        payload: bytes = b"",
        expect_bytes: int = 0,
    ) -> Generator[Any, Any, Tuple[Any, bytes]]:
        """Invoke ``procedure`` on the connection's peer (a generator).

        Returns ``(result, reply_payload)``.  ``payload`` rides out with the
        call (whole-file store); the reply payload rides back (whole-file
        fetch).  ``expect_bytes`` extends the retransmission timeout for
        calls known to return large payloads.
        """
        if conn.closed or not conn.established:
            raise NotAuthenticated(f"connection {conn.connection_id} unusable")
        seq = conn.calls_made
        conn.calls_made += 1
        my_name = self.host.name
        peer = conn.peer_of(my_name)

        tracer = self.sim.tracer
        traced = tracer.enabled
        start = self.sim.now
        try:
            with (tracer.span(f"rpc.call:{procedure}", component="rpc",
                              host=my_name, peer=peer)
                  if traced else _NULL_SPAN):
                fast = self.payload_fast_path
                record = {"proc": procedure, "args": args if args is not None else {}}
                body = marshal.dumps(record)
                wire_body = conn.encrypt(my_name, body, fast=fast)
                wire_payload = self._protect_payload(conn, my_name, payload)
                crypto_cpu = self.costs.encrypt_seconds(
                    conn.encryption, len(body) + len(payload)
                )
                yield from self.host.compute(self.costs.client_stub_cpu + crypto_cpu)

                envelope = Envelope(
                    Kind.CALL, conn.connection_id, seq, wire_body, wire_payload,
                    # In-process shortcut past the unmarshal (wire bytes and
                    # costs unchanged); disabled with payload_fast_path.
                    decoded=record if fast else None, acked=conn.acked,
                )
                if traced:
                    envelope.trace = tracer.context()
                self.calls_sent.add(procedure)

                key = (conn.connection_id, seq)
                while True:
                    reply = yield from self._send_and_wait(
                        envelope, peer, self._pending, key, expect_bytes=expect_bytes
                    )
                    crypto_cpu = self.costs.encrypt_seconds(
                        conn.encryption, len(reply.body) + len(reply.payload)
                    )
                    yield from self.host.compute(crypto_cpu)
                    decoded = reply.decoded
                    try:
                        if decoded is not None:
                            conn.decrypt(my_name, reply.body)  # tag check against the wire bytes
                        else:
                            decoded = decode_body(conn.decrypt(my_name, reply.body))
                        reply_payload = self._unprotect_payload(conn, my_name, reply.payload)
                    except (IntegrityError, marshal.MarshalError):
                        # The reply arrived damaged (in-flight corruption): never
                        # accept it.  Re-ask — the server replays its cached,
                        # intact reply without re-executing the call.
                        self.corrupt_rejected += 1
                        continue
                    # Outside the except: a *server-raised* error travelling in a
                    # clean reply must propagate to the caller, not trigger retry.
                    result = maybe_raise(decoded)
                    break
        finally:
            # Answered, abandoned or killed: this seq is never asked again,
            # so the next call's ``acked`` may pass it.
            conn.retire(seq)
        bag = self._latency_bags.get(procedure)
        if bag is None:
            bag = self._latency_bags[procedure] = self.sim.metrics.histogram(
                f"rpc.{my_name}.latency.{procedure}"
            )
        bag.add(self.sim.now - start)
        return result.get("value"), reply_payload

    def _protect_payload(self, conn: Connection, sender: str, payload: bytes) -> bytes:
        if not payload:
            return b""
        if self.functional_payload_crypto and conn.encryption != EncryptionMode.NONE:
            # The cipher needs real bytes; an unbuilt body is built to seal.
            return conn.encrypt(sender, bytes(payload), fast=self.payload_fast_path)
        return payload

    def _unprotect_payload(self, conn: Connection, receiver: str, payload: bytes) -> bytes:
        if not payload:
            return b""
        if self.functional_payload_crypto and conn.encryption != EncryptionMode.NONE:
            return conn.decrypt(receiver, payload)
        return payload

    # ------------------------------------------------------------------
    # transmission with loss, retransmission and timeout
    # ------------------------------------------------------------------

    def _send_and_wait(
        self, envelope: Envelope, destination: str, table: Dict, key,
        expect_bytes: int,
    ) -> Generator[Any, Any, Envelope]:
        """Send ``envelope`` until the reply filed under ``table[key]`` comes.

        The process waits on the reply event alone.  Each attempt's
        retransmit timer carries the event as its value and
        :func:`_expire` as its one callback: if the event is still pending
        when the timer fires, it succeeds with :data:`_EXPIRED`.  Whatever
        consumes the event — expiry or a BUSY acknowledgement — the slot is
        re-armed with a fresh one, so a late reply still resolves.  (A reply
        dispatched in the same instant, between the consumption and the
        re-arm, is dropped like any datagram to an empty slot; the next
        retransmission has the server replay it.)
        """
        wire = envelope.wire_bytes(self.costs.envelope_bytes)
        # Generous per-attempt timeout: base plus time to move the larger of
        # the outbound message and the expected reply at ~50 KB/s worst case.
        base_attempt = self.costs.retransmit_timeout + max(wire, expect_bytes) / 50_000.0
        per_attempt = base_attempt
        backoff = self.costs.retransmit_backoff
        jitter = self.costs.retransmit_jitter
        attempts = 0
        try:
            while True:
                # The previous pass's event, if any, was consumed (expiry or
                # BUSY): arm the slot afresh before sending, so a reply to an
                # earlier attempt that lands mid-send still resolves.
                event = table[key] = self.sim.event()
                attempts += 1
                datagram = Datagram(self.host.name, destination, envelope, wire)
                yield from self.host.network.send(datagram, kind="rpc")
                timer = self.sim.timeout(per_attempt, event)
                timer.callbacks.append(_expire)
                reply = yield event
                if reply is not _EXPIRED:
                    # The reply won the race: the pending retransmit timer is
                    # dead weight in the queue — cancel it so the kernel
                    # discards it on pop.
                    timer.cancel()
                    if reply.kind != Kind.BUSY:
                        return reply
                    # The server acknowledged it is still working on this call
                    # (e.g. mid callback-break): stay patient, re-arm and re-ask.
                    attempts = 0
                    per_attempt = base_attempt
                    continue
                if attempts > self.costs.max_retries:
                    raise ServerUnavailable(
                        f"no response from {destination} after {attempts} attempts"
                    )
                self.retransmissions += 1
                self.retransmits.add(destination)
                # Exponential backoff with seeded jitter for the next attempt.
                # With the defaults (backoff 1.0, jitter 0) this branch keeps
                # the historical fixed timeout and, crucially, draws nothing
                # from the generator, so unconfigured runs replay byte-for-byte.
                if backoff != 1.0 or jitter != 0.0:
                    per_attempt = base_attempt * (backoff ** attempts)
                    if jitter != 0.0:
                        per_attempt *= 1.0 + jitter * self.rng.uniform(-1.0, 1.0)
        finally:
            table.pop(key, None)

    # ------------------------------------------------------------------
    # inbound dispatch
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> Generator:
        while True:
            datagram = yield self.host.nic.receive()
            if not self.host.up:
                continue  # a dead host drops traffic on the floor
            envelope: Envelope = datagram.payload
            if envelope.kind == Kind.CALL:
                self._admit_call(envelope, datagram.source)
            elif envelope.kind in (Kind.REPLY, Kind.BUSY):
                self._resolve(self._pending, (envelope.connection_id, envelope.seq), envelope)
            elif envelope.kind == Kind.HS_HELLO:
                self.sim.process(self._serve_hello(envelope, datagram.source))
            elif envelope.kind == Kind.HS_CONFIRM:
                self.sim.process(self._serve_confirm(envelope, datagram.source))
            elif envelope.kind in (Kind.HS_CHALLENGE, Kind.HS_OK, Kind.HS_FAIL):
                # Handshake replies carry the phase they answer in `seq`.
                phase = str(envelope.seq)
                self._resolve(self._hs_pending, (envelope.connection_id, phase), envelope)

    @staticmethod
    def _resolve(table: Dict, key, envelope: Envelope) -> None:
        event = table.pop(key, None)
        if event is not None and not event.triggered:
            event.succeed(envelope)

    # ------------------------------------------------------------------
    # server side: handshake
    # ------------------------------------------------------------------

    def _serve_hello(self, envelope: Envelope, client_name: str) -> Generator:
        conn_id = envelope.connection_id
        if self.auth_key_lookup is None:
            yield from self._send_reply(
                Envelope(Kind.HS_FAIL, conn_id, seq=1), client_name
            )
            return
        if (
            self.server_mode == "process"
            and self.max_server_processes is not None
            and len(self._worker_queues) >= self.max_server_processes
        ):
            yield from self._send_reply(
                Envelope(Kind.HS_FAIL, conn_id, seq=1, note="full"), client_name
            )
            return
        existing = self._server_handshakes.get(conn_id)
        if existing is not None:
            # A retransmitted hello (the challenge was lost or slow):
            # resend the same challenge rather than restarting the
            # handshake, or the client's confirm would verify against the
            # wrong nonce.
            yield from self._send_reply(existing[2], client_name)
            return
        yield from self.host.compute(self.costs.handshake_cpu)
        entropy = f"{self.host.name}|{conn_id}|{self.sim.now!r}".encode()
        handshake = ServerHandshake(self.auth_key_lookup, entropy)
        try:
            challenge = handshake.respond(envelope.username, envelope.body)
        except AuthenticationFailure:
            yield from self._send_reply(
                Envelope(Kind.HS_FAIL, conn_id, seq=1), client_name
            )
            return
        reply = Envelope(Kind.HS_CHALLENGE, conn_id, seq=1, body=challenge)
        encryption = envelope.note or self.encryption
        self._server_handshakes[conn_id] = (handshake, client_name, reply, encryption)
        yield from self._send_reply(reply, client_name)

    def _serve_confirm(self, envelope: Envelope, client_name: str) -> Generator:
        conn_id = envelope.connection_id
        state = self._server_handshakes.pop(conn_id, None)
        if state is None:
            if conn_id in self.connections:
                # Retransmitted confirm for an already-open connection.
                yield from self._send_reply(
                    Envelope(Kind.HS_OK, conn_id, seq=2), client_name
                )
            else:
                yield from self._send_reply(
                    Envelope(Kind.HS_FAIL, conn_id, seq=2), client_name
                )
            return
        handshake, expected_client, _challenge, encryption = state
        try:
            handshake.verify_client(envelope.body)
        except AuthenticationFailure:
            yield from self._send_reply(Envelope(Kind.HS_FAIL, conn_id, seq=2), client_name)
            return
        conn = Connection(
            conn_id, expected_client, self.host.name, handshake.username, encryption
        )
        conn.establish(handshake.session_key)
        self.connections[conn_id] = conn
        if self.server_mode == "process":
            queue = Store(self.sim, name=f"worker:{conn_id}")
            self._worker_queues[conn_id] = queue
            self.sim.process(self._worker_loop(conn, queue), name=f"worker:{conn_id}")
        self.handshakes_completed += 1
        yield from self._send_reply(Envelope(Kind.HS_OK, conn_id, seq=2), client_name)

    # ------------------------------------------------------------------
    # server side: calls
    # ------------------------------------------------------------------

    def _admit_call(self, envelope: Envelope, source: str) -> None:
        conn = self.connections.get(envelope.connection_id)
        if conn is None:
            return  # unknown connection: drop (client will time out)
        if envelope.seq <= conn.floor:
            # Its caller retired it (answered, or gave up): a stale copy is
            # neither answered nor run.
            self.stale_duplicates += 1
            return
        cache = self._reply_cache.setdefault(envelope.connection_id, {})
        if envelope.seq in cache:
            cached = cache[envelope.seq]
            if cached is _IN_PROGRESS:
                busy = Envelope(Kind.BUSY, envelope.connection_id, envelope.seq)
                self.sim.process(self._send_reply(busy, source))
            else:
                self.sim.process(self._send_reply(cached, source))
            return  # retransmission: busy-ack or replay the finished reply
        cache[envelope.seq] = _IN_PROGRESS
        if self.server_mode == "process":
            queue = self._worker_queues.get(envelope.connection_id)
            if queue is None:  # connection raced its worker teardown
                return
            queue.put((envelope, source))
        else:
            self.sim.process(self._serve_call(conn, envelope, source, switch_tax=False))

    def _worker_loop(self, conn: Connection, queue: Store) -> Generator:
        while True:
            envelope, source = yield queue.get()
            yield from self._serve_call(conn, envelope, source, switch_tax=True)

    def _serve_call(
        self, conn: Connection, envelope: Envelope, source: str, switch_tax: bool
    ) -> Generator:
        # The span parent is the client's call span, carried on the envelope;
        # the name is refined once the body is decrypted and decoded.
        tracer = self.sim.tracer
        with (tracer.span("rpc.serve", component="rpc", host=self.host.name,
                          parent=envelope.trace)
              if tracer.enabled else _NULL_SPAN) as span:
            dispatch_cpu = self.costs.server_dispatch_cpu
            if switch_tax:
                dispatch_cpu += self.costs.context_switch_cpu * self.costs.switches_per_call
            crypto_cpu = self.costs.encrypt_seconds(
                conn.encryption, len(envelope.body) + len(envelope.payload)
            )
            yield from self.host.compute(dispatch_cpu + crypto_cpu)

            decoded = envelope.decoded
            try:
                if decoded is not None:
                    conn.decrypt(self.host.name, envelope.body)  # tag check against the wire bytes
                else:
                    decoded = decode_body(conn.decrypt(self.host.name, envelope.body))
            except (IntegrityError, marshal.MarshalError):
                # The call arrived damaged (in-flight corruption): reject it
                # without executing anything, and free the reply-cache slot so
                # the client's retransmission is admitted as a fresh copy
                # rather than busy-acked against a call that will never run.
                self.corrupt_rejected += 1
                cache = self._reply_cache.get(envelope.connection_id)
                if cache is not None and cache.get(envelope.seq) is _IN_PROGRESS:
                    del cache[envelope.seq]
                return
            if envelope.acked > conn.floor:
                # The MAC vouches for the header: release what the caller
                # retired (a damaged datagram must not move the floor).
                floor = conn.floor = envelope.acked
                cache = self._reply_cache[envelope.connection_id]
                for seq in [seq for seq in cache if seq <= floor]:
                    del cache[seq]
            procedure = decoded.get("proc", "?")
            span.rename(f"rpc.serve:{procedure}")
            self.calls_received.add(procedure)
            payload = self._unprotect_payload(conn, self.host.name, envelope.payload)

            handler = self.services.get(procedure)
            reply_payload = b""
            if handler is None:
                record: Dict[str, Any] = encode_error(
                    ReproError(f"no such procedure {procedure!r}")
                )
            else:
                try:
                    result, reply_payload = yield from handler(conn, decoded.get("args", {}), payload)
                    record = {"value": result}
                except ReproError as exc:
                    record = encode_error(exc)
                    reply_payload = b""

            fast = self.payload_fast_path
            body = marshal.dumps(record)
            wire_body = conn.encrypt(self.host.name, body, fast=fast)
            wire_payload = self._protect_payload(conn, self.host.name, reply_payload)
            crypto_cpu = self.costs.encrypt_seconds(conn.encryption, len(body) + len(reply_payload))
            yield from self.host.compute(crypto_cpu)

            reply = Envelope(Kind.REPLY, envelope.connection_id, envelope.seq, wire_body, wire_payload,
                             decoded=record if fast else None)
        if envelope.seq > conn.floor:  # else its caller gave up: answer, don't keep
            self._reply_cache[envelope.connection_id][envelope.seq] = reply
        yield from self._send_reply(reply, source)

    def _send_reply(self, envelope: Envelope, destination: str) -> Generator:
        wire = envelope.wire_bytes(self.costs.envelope_bytes)
        datagram = Datagram(self.host.name, destination, envelope, wire)
        try:
            yield from self.host.network.send(datagram, kind="rpc")
        except NoRoute:
            # The route was cut while the call was being served: a datagram
            # lost in flight.  Nobody is above a server process to hear the
            # error; the client times out and retransmits, as for any loss.
            self.replies_unroutable += 1

    # ------------------------------------------------------------------

    def close_connection(self, conn: Connection) -> None:
        """Drop a connection's local state (the peer discovers via timeout)."""
        conn.close()
        self.connections.pop(conn.connection_id, None)
        self._worker_queues.pop(conn.connection_id, None)
        self._reply_cache.pop(conn.connection_id, None)

    @property
    def active_connections(self) -> int:
        """Number of live connections this node knows about."""
        return len(self.connections)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RpcNode {self.host.name} mode={self.server_mode} conns={len(self.connections)}>"
