"""Unit tests for the RPC package: handshake-over-network, calls, failures."""

import pytest

from repro.crypto import derive_user_key
from repro.errors import (
    AuthenticationFailure,
    FileNotFound,
    NotAuthenticated,
    NotCustodian,
    ServerUnavailable,
)
from repro.hosts import Host
from repro.net import Network
from repro.net.link import LinkFaults
from repro.rpc import EncryptionMode, RpcCosts, RpcNode
from repro.rpc.messages import Envelope, Kind
from repro.sim import Simulator, WorkloadRandom

ALICE_KEY = derive_user_key("alice", "pw")
KEYS = {"alice": ALICE_KEY}


def build_pair(sim, server_kwargs=None, client_kwargs=None):
    """One client node and one server node on a shared segment."""
    net = Network(sim)
    net.add_segment("lan")
    client_host = Host(sim, net, "client", "lan")
    server_host = Host(sim, net, "server", "lan", cpu_speed=2.0)
    server = RpcNode(
        server_host, auth_key_lookup=lambda user: KEYS[user], **(server_kwargs or {})
    )
    client = RpcNode(client_host, **(client_kwargs or {}))
    return client, server, client_host, server_host


def echo_service(server_host):
    def echo(conn, args, payload):
        yield from server_host.compute(0.001)
        return {"msg": args.get("msg"), "user": conn.username}, payload[::-1]

    return echo


@pytest.fixture
def sim():
    return Simulator()


class TestConnect:
    def test_successful_handshake(self, sim):
        client, server, _ch, _sh = build_pair(sim)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            return conn

        conn = sim.run_until_complete(sim.process(go()))
        assert conn.established
        assert conn.username == "alice"
        assert server.handshakes_completed == 1
        # Both ends independently derived the same session key.
        assert server.connections[conn.connection_id].session_key == conn.session_key

    def test_wrong_password_refused(self, sim):
        client, _server, _ch, _sh = build_pair(sim)

        def go():
            yield from client.connect("server", "alice", derive_user_key("alice", "bad"))

        with pytest.raises(AuthenticationFailure):
            sim.run_until_complete(sim.process(go()))

    def test_unknown_user_refused(self, sim):
        client, _server, _ch, _sh = build_pair(sim)

        def go():
            yield from client.connect("server", "mallory", derive_user_key("mallory", "x"))

        with pytest.raises(AuthenticationFailure):
            sim.run_until_complete(sim.process(go()))

    def test_node_without_auth_refuses_connections(self, sim):
        client, _server, client_host, _sh = build_pair(sim)
        # The client node runs no auth service; connecting *to* it fails.
        peer = RpcNode(Host(sim, client_host.network, "other", "lan"))

        def go():
            yield from peer.connect("client", "alice", ALICE_KEY)

        with pytest.raises(AuthenticationFailure):
            sim.run_until_complete(sim.process(go()))

    def test_process_server_connection_limit(self, sim):
        client, _server, _ch, _sh = build_pair(
            sim, server_kwargs={"server_mode": "process", "max_server_processes": 1}
        )

        def go():
            yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.connect("server", "alice", ALICE_KEY)

        with pytest.raises(ServerUnavailable, match="processes"):
            sim.run_until_complete(sim.process(go()))


class TestCall:
    def test_call_roundtrip_with_payload(self, sim):
        client, server, _ch, server_host = build_pair(sim)
        server.register("Echo", echo_service(server_host))

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            return (yield from client.call(conn, "Echo", {"msg": "hi"}, payload=b"abc"))

        result, payload = sim.run_until_complete(sim.process(go()))
        assert result == {"msg": "hi", "user": "alice"}
        assert payload == b"cba"

    def test_unknown_procedure_errors(self, sim):
        client, _server, _ch, _sh = build_pair(sim)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.call(conn, "NoSuchProc", {})

        with pytest.raises(Exception, match="no such procedure"):
            sim.run_until_complete(sim.process(go()))

    def test_handler_exception_reraised_at_client(self, sim):
        client, server, _ch, server_host = build_pair(sim)

        def failing(conn, args, payload):
            yield from server_host.compute(0.001)
            raise FileNotFound("/vice/missing")

        server.register("Fail", failing)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.call(conn, "Fail", {})

        with pytest.raises(FileNotFound, match="missing"):
            sim.run_until_complete(sim.process(go()))

    def test_not_custodian_referral_carries_hint(self, sim):
        client, server, _ch, server_host = build_pair(sim)

        def refer(conn, args, payload):
            yield from server_host.compute(0.001)
            raise NotCustodian("server7")

        server.register("Refer", refer)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.call(conn, "Refer", {})

        with pytest.raises(NotCustodian) as excinfo:
            sim.run_until_complete(sim.process(go()))
        assert excinfo.value.custodian_hint == "server7"

    def test_call_on_closed_connection_rejected(self, sim):
        client, _server, _ch, _sh = build_pair(sim)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            client.close_connection(conn)
            yield from client.call(conn, "Echo", {})

        with pytest.raises(NotAuthenticated):
            sim.run_until_complete(sim.process(go()))

    def test_server_counts_calls_by_procedure(self, sim):
        client, server, _ch, server_host = build_pair(sim)
        server.register("Echo", echo_service(server_host))

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            for _ in range(3):
                yield from client.call(conn, "Echo", {"msg": "x"})

        sim.run_until_complete(sim.process(go()))
        assert server.calls_received.count("Echo") == 3
        assert client.calls_sent.count("Echo") == 3

    def test_bidirectional_calls_on_one_connection(self, sim):
        client, server, client_host, server_host = build_pair(sim)
        server.register("Echo", echo_service(server_host))

        def client_service(conn, args, payload):
            yield from client_host.compute(0.001)
            return {"pong": True}, b""

        client.register("Ping", client_service)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            server_conn = server.connections[conn.connection_id]
            result, _ = yield from server.call(server_conn, "Ping", {})
            return result

        result = sim.run_until_complete(sim.process(go()))
        assert result == {"pong": True}


class TestEncryptionOnTheWire:
    def test_eavesdropper_sees_only_ciphertext(self, sim):
        client, server, _ch, server_host = build_pair(sim)
        server.register("Echo", echo_service(server_host))
        captured = []
        original = client.host.network.send

        def tap(datagram, kind="data", deliver=True):
            captured.append(datagram)
            return original(datagram, kind, deliver)

        client.host.network.send = tap

        secret = b"the secret design document"

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.call(conn, "Echo", {"msg": "classified"}, payload=secret)

        sim.run_until_complete(sim.process(go()))
        for datagram in captured:
            envelope = datagram.payload
            assert secret not in envelope.body
            assert secret not in envelope.payload
            assert b"classified" not in envelope.body

    def test_no_encryption_mode_sends_cleartext(self, sim):
        client, server, _ch, server_host = build_pair(
            sim,
            server_kwargs={"encryption": EncryptionMode.NONE},
            client_kwargs={"encryption": EncryptionMode.NONE},
        )
        server.register("Echo", echo_service(server_host))
        captured = []
        original = client.host.network.send

        def tap(datagram, kind="data", deliver=True):
            captured.append(datagram)
            return original(datagram, kind, deliver)

        client.host.network.send = tap

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            yield from client.call(conn, "Echo", {"msg": "x"}, payload=b"plain payload")

        sim.run_until_complete(sim.process(go()))
        assert any(b"plain payload" in d.payload.payload for d in captured)

    def test_software_encryption_slower_than_hardware(self, sim):
        durations = {}
        for mode in (EncryptionMode.HARDWARE, EncryptionMode.SOFTWARE):
            local_sim = Simulator()
            client, server, _ch, server_host = build_pair(
                local_sim,
                server_kwargs={"encryption": mode},
                client_kwargs={"encryption": mode},
            )
            server.register("Echo", echo_service(server_host))

            def go():
                conn = yield from client.connect("server", "alice", ALICE_KEY)
                yield from client.call(conn, "Echo", {}, payload=b"z" * 100_000)

            start = local_sim.now
            local_sim.run_until_complete(local_sim.process(go()))
            durations[mode] = local_sim.now - start
        assert durations[EncryptionMode.SOFTWARE] > 3 * durations[EncryptionMode.HARDWARE]


class TestFailures:
    def test_dead_server_times_out(self, sim):
        costs = RpcCosts(retransmit_timeout=0.5, max_retries=1)
        client, _server, _ch, server_host = build_pair(
            sim, client_kwargs={"costs": costs}
        )
        server_host.crash()

        def go():
            yield from client.connect("server", "alice", ALICE_KEY)

        with pytest.raises(ServerUnavailable):
            sim.run_until_complete(sim.process(go()))

    def test_crash_after_connect_fails_calls(self, sim):
        costs = RpcCosts(retransmit_timeout=0.5, max_retries=1)
        client, server, _ch, server_host = build_pair(
            sim, client_kwargs={"costs": costs}
        )
        server.register("Echo", echo_service(server_host))

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            server_host.crash()
            yield from client.call(conn, "Echo", {})

        with pytest.raises(ServerUnavailable):
            sim.run_until_complete(sim.process(go()))

    def test_recovered_server_answers_again(self, sim):
        costs = RpcCosts(retransmit_timeout=0.5, max_retries=1)
        client, server, _ch, server_host = build_pair(
            sim, client_kwargs={"costs": costs}
        )
        server.register("Echo", echo_service(server_host))

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            server_host.crash()
            try:
                yield from client.call(conn, "Echo", {"msg": 1})
            except ServerUnavailable:
                pass
            server_host.recover()
            return (yield from client.call(conn, "Echo", {"msg": 2}))

        result, _ = sim.run_until_complete(sim.process(go()))
        assert result["msg"] == 2

    def test_lossy_network_retransmits_and_succeeds(self, sim):
        costs = RpcCosts(retransmit_timeout=0.5, max_retries=10)
        client, server, client_host, server_host = build_pair(
            sim,
            server_kwargs={"costs": costs},
            client_kwargs={"costs": costs},
        )
        client_host.network.install_link_faults(
            "lan", LinkFaults(WorkloadRandom(1), loss=0.3))
        server.register("Echo", echo_service(server_host))

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            results = []
            for index in range(10):
                result, _ = yield from client.call(conn, "Echo", {"msg": index})
                results.append(result["msg"])
            return results

        results = sim.run_until_complete(sim.process(go()))
        assert results == list(range(10))
        assert client.retransmissions > 0

    def test_duplicate_calls_not_reexecuted(self, sim):
        """At-most-once: retransmissions must not double-run handlers."""
        costs = RpcCosts(retransmit_timeout=0.3, max_retries=20)
        client, server, client_host, server_host = build_pair(
            sim,
            server_kwargs={"costs": costs},
            client_kwargs={"costs": costs},
        )
        client_host.network.install_link_faults(
            "lan", LinkFaults(WorkloadRandom(2), loss=0.4))
        executions = {"count": 0}

        def counted(conn, args, payload):
            executions["count"] += 1
            yield from server_host.compute(0.001)
            return {"n": executions["count"]}, b""

        server.register("Counted", counted)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            for _ in range(15):
                yield from client.call(conn, "Counted", {})

        sim.run_until_complete(sim.process(go()))
        assert executions["count"] == 15


class _ScriptedNetwork:
    """Stands in for ``host.network``: a send takes no virtual time, and
    ``script(sim, datagram, attempt)`` decides what comes back."""

    def __init__(self, sim, script):
        self.sim = sim
        self.script = script
        self.sent = 0

    def send(self, datagram, kind="data", deliver=True):
        self.sent += 1
        self.script(self.sim, datagram, self.sent)
        return
        yield  # a generator, like Network.send


class TestReplyWait:
    """``_send_and_wait``: the caller waits on the reply event alone; the
    retransmit timer expires it, and the slot is re-armed for late replies."""

    KEY = ("conn", 7)
    CALL = Envelope(Kind.CALL, "conn", 7)
    REPLY = Envelope(Kind.REPLY, "conn", 7)

    def _node(self, sim, script, **costs):
        net = Network(sim)
        net.add_segment("lan")
        host = Host(sim, net, "client", "lan")
        node = RpcNode(host, costs=RpcCosts(**costs))
        host.network = _ScriptedNetwork(sim, script)
        return node

    def _reply_after(self, node, delay, envelope=None):
        def replier():
            yield delay
            node._resolve(node._pending, self.KEY, envelope or self.REPLY)
        return node.sim.process(replier())

    def _wait(self, node):
        return node.sim.process(node._send_and_wait(
            self.CALL, "server", node._pending, self.KEY, expect_bytes=0))

    def test_reply_wins_and_cancels_the_timer(self, sim):
        node = self._node(sim, lambda s, d, n: self._reply_after(node, 0.01))
        assert sim.run_until_complete(self._wait(node)) is self.REPLY
        assert sim.now == 0.01
        assert node.retransmissions == 0
        assert node._pending == {}
        assert sim.scheduler_stats["dead"] == 1  # the cancelled timer

    def test_late_reply_resolves_the_rearmed_slot(self, sim):
        # The first reply is slower than the timer; it lands while the
        # retransmission is the only other thing in flight.
        def script(s, datagram, attempt):
            if attempt == 1:
                self._reply_after(node, 0.75)

        node = self._node(sim, script, retransmit_timeout=0.5)
        assert sim.run_until_complete(self._wait(node)) is self.REPLY
        assert sim.now == 0.75
        assert (node.host.network.sent, node.retransmissions) == (2, 1)
        assert node._pending == {}

    def test_busy_rearms_and_resets_patience(self, sim):
        # max_retries=1 would give up after two silent attempts; BUSY
        # acknowledgements keep the caller waiting as long as it takes.
        busy = Envelope(Kind.BUSY, "conn", 7)

        def script(s, datagram, attempt):
            if attempt > 1:
                self._reply_after(node, 0.01, busy if attempt < 6 else None)

        node = self._node(sim, script, retransmit_timeout=0.5, max_retries=1)
        assert sim.run_until_complete(self._wait(node)) is self.REPLY
        assert node.host.network.sent == 6
        assert node.retransmissions == 1  # only the silent first attempt
        assert node._pending == {}

    def test_reply_filed_before_the_timer_wins_a_tie(self, sim):
        # At t=0 the per-attempt timeout is exactly retransmit_timeout +
        # wire / 50 000; a replier already asleep for that long pops first.
        node = self._node(sim, lambda s, d, n: None, retransmit_timeout=0.5)
        tie = 0.5 + self.CALL.wire_bytes(node.costs.envelope_bytes) / 50_000.0
        self._reply_after(node, tie)
        assert sim.run_until_complete(self._wait(node)) is self.REPLY
        assert (sim.now, node.retransmissions) == (tie, 0)

    def test_timer_filed_before_the_reply_wins_a_tie(self, sim):
        # The reply pops in the instant between expiry and re-arm: it finds
        # an empty slot, as any datagram to a consumed slot does, and the
        # retransmission recovers it.
        tie = []

        def script(s, datagram, attempt):
            self._reply_after(node, tie[0] if attempt == 1 else 0.01)

        node = self._node(sim, script, retransmit_timeout=0.5)
        tie.append(0.5 + self.CALL.wire_bytes(node.costs.envelope_bytes) / 50_000.0)
        assert sim.run_until_complete(self._wait(node)) is self.REPLY
        assert (sim.now, node.retransmissions) == (tie[0] + 0.01, 1)
        assert node._pending == {}

    def test_silence_raises_after_max_retries(self, sim):
        node = self._node(sim, lambda s, d, n: None,
                          retransmit_timeout=0.5, max_retries=2)
        with pytest.raises(ServerUnavailable, match="after 3 attempts"):
            sim.run_until_complete(self._wait(node))
        assert (node.host.network.sent, node.retransmissions) == (3, 2)
        assert node._pending == {}

    def test_handshake_phase_two_survives_a_retransmission(self, sim):
        # The confirm's reply slot is keyed by phase "2"; an expiry must
        # re-arm that key, not the hello's.
        client, _server, _ch, _sh = build_pair(
            sim, client_kwargs={"costs": RpcCosts(retransmit_timeout=0.5)})
        confirms = []
        real_send = client.host.network.send

        def lose_first_confirm(datagram, kind="data", deliver=True):
            if datagram.payload.kind == Kind.HS_CONFIRM:
                confirms.append(datagram)
                deliver = len(confirms) > 1
            return real_send(datagram, kind=kind, deliver=deliver)

        client.host.network.send = lose_first_confirm

        def go():
            return (yield from client.connect("server", "alice", ALICE_KEY))

        conn = sim.run_until_complete(sim.process(go()))
        assert conn.established
        assert client.retransmissions == 1
        assert client._hs_pending == {}

    def test_cancelled_reply_timers_stay_bounded(self, sim):
        # One 30 s timer per call, always cancelled: the corpse-compaction
        # bound of tests/test_sim_kernel.py holds on the RPC path.
        node = self._node(sim, lambda s, d, n: self._reply_after(node, 0.001),
                          retransmit_timeout=30.0)
        peak = [0]

        def caller():
            for _ in range(5000):
                yield from node._send_and_wait(
                    self.CALL, "server", node._pending, self.KEY, expect_bytes=0)
                peak[0] = max(peak[0], len(sim._queue))

        sim.run_until_complete(sim.process(caller()))
        assert peak[0] < 300, f"queue grew to {peak[0]}"
        assert sim.scheduler_stats["compactions"] > 0
