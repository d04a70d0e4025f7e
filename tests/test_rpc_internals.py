"""Tests for RPC internals: envelopes, reply cache, BUSY flow, messages."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import derive_user_key
from repro.errors import (
    FileNotFound,
    NoRoute,
    NotCustodian,
    ReproError,
    ServerUnavailable,
)
from repro.hosts import Host
from repro.net import Network
from repro.net.link import LinkFaults
from repro.net.packet import corrupted_datagram
from repro.rpc import RpcCosts, RpcNode, marshal
from repro.rpc.connection import Connection
from repro.rpc.messages import (
    Envelope,
    Kind,
    decode_error,
    encode_error,
    maybe_raise,
)
from repro.rpc.node import _IN_PROGRESS
from repro.sim import Simulator
from repro.sim.rand import WorkloadRandom
from repro.system.config import SystemConfig
from repro.system.itc import ITCSystem
from repro.workload import (
    AndrewBenchmark,
    make_source_tree,
    provision_campus,
    run_campus_day,
)
from tests.helpers import alice_session, run, small_campus


class TestEnvelope:
    def test_wire_bytes_counts_all_parts(self):
        envelope = Envelope(Kind.CALL, "c1", 3, body=b"12345", payload=b"abc",
                            username="u", note="n")
        assert envelope.wire_bytes(100) == 100 + 5 + 3 + 1 + 1

    def test_empty_envelope_costs_overhead_only(self):
        envelope = Envelope(Kind.HS_OK, "c1")
        assert envelope.wire_bytes(96) == 96


class TestErrorTransport:
    def test_roundtrip_standard_error(self):
        record = encode_error(FileNotFound("/x"))
        error = decode_error(record)
        assert isinstance(error, FileNotFound)
        assert "/x" in str(error)

    def test_roundtrip_not_custodian_hint(self):
        record = encode_error(NotCustodian("server5"))
        error = decode_error(record)
        assert isinstance(error, NotCustodian)
        assert error.custodian_hint == "server5"

    def test_unknown_error_class_degrades_gracefully(self):
        error = decode_error({"__error__": "TotallyMadeUp", "message": "m"})
        assert isinstance(error, ReproError)

    def test_maybe_raise_passthrough(self):
        assert maybe_raise({"value": 42}) == {"value": 42}
        assert maybe_raise([1, 2]) == [1, 2]
        assert maybe_raise(None) is None

    def test_maybe_raise_raises(self):
        with pytest.raises(FileNotFound):
            maybe_raise(encode_error(FileNotFound("gone")))

    def test_error_record_is_marshalable(self):
        record = encode_error(NotCustodian("server1"))
        assert marshal.loads(marshal.dumps(record)) == record


def all_nodes(campus):
    return ([server.node for server in campus.servers]
            + [ws.venus.node for ws in campus.workstations])


def kept_replies(node):
    """Finished replies ``node`` holds, per connection it serves."""
    return {conn_id: [seq for seq, reply in cache.items() if reply is not _IN_PROGRESS]
            for conn_id, cache in node._reply_cache.items()}


def tap_calls(campus, destination):
    """Record every CALL datagram sent to ``destination`` from now on."""
    captured = []
    real_send = campus.network.send

    def tap(datagram, kind="data", deliver=True):
        if datagram.destination == destination and datagram.payload.kind == Kind.CALL:
            captured.append(datagram)
        return real_send(datagram, kind=kind, deliver=deliver)

    campus.network.send = tap
    return captured


def store_call(captured):
    return next(d for d in captured if d.payload.decoded["proc"] == "StoreByFid")


def settle(campus, seconds=5.0):
    campus.run(until=campus.sim.now + seconds)


class WorkPair:
    """A client and a server node on one segment.  ``Work`` sleeps
    ``delay`` and counts its runs per ``seq``; every REPLY and BUSY the
    server sends for a sequence number in ``lost`` vanishes on the wire,
    so that call's caller gives up after one retransmission."""

    def __init__(self, lost=()):
        self.sim = sim = Simulator()
        net = Network(sim)
        net.add_segment("lan")
        costs = RpcCosts(retransmit_timeout=0.5, max_retries=1)
        server_host = Host(sim, net, "server", "lan")
        self.server = RpcNode(server_host, costs=costs,
                              auth_key_lookup=lambda user: derive_user_key(user, "pw"))
        self.client = RpcNode(Host(sim, net, "client", "lan"), costs=costs)
        self.runs = Counter()
        self.on_run = lambda conn: None
        self.server.register("Work", self._work)

        def send(datagram, kind="data", deliver=True):
            envelope = datagram.payload
            if envelope.kind in (Kind.REPLY, Kind.BUSY) and envelope.seq in lost:
                deliver = False
            return net.send(datagram, kind=kind, deliver=deliver)

        server_host.network = type("LossyNet", (), {"send": staticmethod(send)})()

    def _work(self, conn, args, payload):
        self.runs[args["seq"]] += 1
        self.on_run(conn)
        yield args["delay"]
        return args["seq"], b""

    def connect(self):
        return self.client.connect("server", "alice", derive_user_key("alice", "pw"))

    def work(self, conn, seq, delay=0.0):
        assert seq == conn.calls_made
        return self.client.call(conn, "Work", {"seq": seq, "delay": delay})


class TestReplyCache:
    def test_reply_cache_bounded(self):
        """No window: however long the connection lives, each end keeps the
        one reply whose ack has not ridden out yet — in both directions."""
        campus = small_campus()
        writer, reader = alice_session(campus, 0), alice_session(campus, 1)
        home = "/vice/usr/alice"
        run(campus, writer.write_file(f"{home}/f", b"x"))
        for index in range(500):
            run(campus, writer.stat(f"{home}/f"))
            campus.workstation(0).venus.cache.invalidate_all()
        # A store that breaks the reader's callback: Vice calls Venus.
        for version in (b"v2", b"v3", b"v4"):
            assert run(campus, reader.read_file(f"{home}/f")) != version
            run(campus, writer.write_file(f"{home}/f", version))
        assert campus.workstation(1).venus.callback_breaks_received == 3
        served = 0
        for node in all_nodes(campus):
            for conn_id, finished in kept_replies(node).items():
                assert len(node._reply_cache[conn_id]) == len(finished) <= 1
                served += len(finished)
            assert (campus.metrics.value(f"rpc.{node.host.name}.replies_kept")["value"]
                    == sum(map(len, kept_replies(node).values())))
        assert served == 3  # two Venus -> Vice connections, one Vice -> Venus

    def test_raised_floor_releases_finished_and_in_progress_alike(self):
        """What the caller retired goes when its ack arrives, finished or
        still running; a call that finishes under the floor is answered but
        not kept; whatever is above the floor stays."""
        pair = WorkPair(lost={0})
        sim = pair.sim

        def go():
            conn = yield from pair.connect()
            cache = pair.server._reply_cache.setdefault(conn.connection_id, {})
            with pytest.raises(ServerUnavailable):  # every answer to 0 is lost
                yield from pair.work(conn, 0, delay=10.0)
            assert cache == {0: _IN_PROGRESS}
            yield from pair.work(conn, 1)  # acked=0 while 0 still runs
            assert list(cache) == [1]
            yield 15.0  # call 0 finishes under the floor: answered, not kept
            assert list(cache) == [1] and pair.runs[0] == 1
            yield from pair.work(conn, 2)
            assert list(cache) == [2]
            slow = sim.process(pair.work(conn, 3, delay=4.0))
            yield 0.001  # let it take its sequence number
            yield from pair.work(conn, 4)
            yield from pair.work(conn, 5)  # 3 outstanding: acked stays 2
            assert (conn.acked, conn._stragglers) == (2, {4, 5})
            assert cache[3] is _IN_PROGRESS and sorted(cache) == [3, 4, 5]
            yield slow
            assert (conn.acked, conn._stragglers) == (5, set())
            yield from pair.work(conn, 6)
            assert list(cache) == [6]

        sim.run_until_complete(sim.process(go()))
        assert pair.runs == Counter(range(7))

    def test_connection_close_drops_reply_cache(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file("/vice/usr/alice/f", b"x"))
        venus = campus.workstation(0).venus
        conn = next(iter(venus._connections.values()))
        venus.node.close_connection(conn)
        assert conn.connection_id not in venus.node._reply_cache


class TestCumulativeAck:
    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(7)), st.integers(1, 7))
    def test_acked_is_the_largest_gapless_prefix(self, order, outstanding):
        """Whatever order the calls retire in (answered or abandoned — the
        connection cannot tell), ``acked`` is the largest n with every
        call <= n retired and the stragglers are exactly the rest."""
        conn = Connection("c", "client", "server", "alice", "none")
        retired = set()
        for seq in [seq for seq in order if seq < outstanding]:
            conn.retire(seq)
            retired.add(seq)
            expected = -1
            while expected + 1 in retired:
                expected += 1
            assert conn.acked == expected
            assert conn._stragglers == {seq for seq in retired if seq > expected}
        assert conn.acked == outstanding - 1 and not conn._stragglers

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_concurrent_calls_run_once_and_the_floor_follows(self, data):
        """n calls at once on one connection, replies in any order, any
        subset abandoned (every answer to it lost): no handler runs twice,
        the server never lets go of a reply above its floor, and one more
        call leaves a single kept reply."""
        count = data.draw(st.integers(1, 5), label="concurrent calls")
        order = data.draw(st.permutations(range(count)), label="reply order")
        abandoned = data.draw(st.sets(st.sampled_from(range(count))), label="abandoned")

        pair = WorkPair(lost=abandoned)
        sim, server, runs = pair.sim, pair.server, pair.runs
        state = {}

        def nothing_above_the_floor_was_released(conn):
            state["served"] = conn
            cache = server._reply_cache[conn.connection_id]
            assert all(seq > conn.floor for seq in cache)
            assert all(seq in cache for seq in runs if seq > conn.floor)

        pair.on_run = nothing_above_the_floor_was_released

        def one(conn, seq):
            try:
                yield from pair.client.call(conn, "Work", {
                    "seq": seq, "delay": 0.01 * (1 + order.index(seq))})
            except ServerUnavailable:
                assert seq in abandoned
            else:
                assert seq not in abandoned

        def go():
            conn = yield from pair.connect()
            calls = [sim.process(one(conn, seq)) for seq in range(count)]
            for call in calls:
                yield call
            assert conn.acked == count - 1 and not conn._stragglers
            yield from pair.work(conn, count)
            return conn

        conn = sim.run_until_complete(sim.process(go()))
        sim.run(until=sim.now + 5.0)  # late retransmissions of abandoned calls
        nothing_above_the_floor_was_released(state["served"])
        assert runs == Counter(range(count + 1))  # each exactly once
        assert state["served"].floor == count - 1
        assert list(server._reply_cache[conn.connection_id]) == [count]


class TestStaleDuplicates:
    HOME = "/vice/usr/alice"

    def _stored(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{self.HOME}/f", b"v1"))
        captured = tap_calls(campus, "server0")
        run(campus, session.write_file(f"{self.HOME}/f", b"v2"))
        return campus, session, store_call(captured)

    def _observe(self, campus):
        server = campus.server(0)
        return (server.volumes["u-alice"].resolve("/f").version,
                server.node.calls_received.count("StoreByFid"),
                campus.metrics.value("rpc.server0.stale_duplicates")["value"])

    def test_duplicate_before_the_next_call_is_answered_from_the_kept_reply(self):
        campus, _session, store = self._stored()
        before = self._observe(campus)
        replies = []
        server_net = campus.server(0).host.network
        real_send = server_net.send

        def tap(datagram, kind="data", deliver=True):
            if datagram.payload.kind == Kind.REPLY:
                replies.append(datagram.payload.seq)
            return real_send(datagram, kind=kind, deliver=deliver)

        server_net.send = tap
        campus.server(0).host.nic.inbox.put(store)
        settle(campus)
        assert replies == [store.payload.seq]
        assert self._observe(campus) == before

    def test_duplicate_after_the_next_call_is_dropped(self):
        campus, session, store = self._stored()
        version, stores, stale = self._observe(campus)
        campus.workstation(0).venus.cache.invalidate_all()
        run(campus, session.stat(f"{self.HOME}/f"))  # carries the store's ack
        campus.server(0).host.nic.inbox.put(store)
        settle(campus)
        assert self._observe(campus) == (version, stores, stale + 1) == (version, stores, 1)
        assert campus.server(0).volumes["u-alice"].read("/f") == b"v2"

    def test_damaged_call_does_not_move_the_floor(self):
        """The header's ``acked`` is believed only once the body's MAC has
        vouched for the datagram it came in."""
        campus, session, _store = self._stored()
        server = campus.server(0).node
        (conn_id, cache), = server._reply_cache.items()
        conn = server.connections[conn_id]
        floor, kept = conn.floor, dict(cache)
        real_send = campus.network.send
        damaged = []

        def corrupt_first_call(datagram, kind="data", deliver=True):
            if datagram.payload.kind == Kind.CALL and not damaged:
                intact = datagram.payload
                datagram = corrupted_datagram(datagram, WorkloadRandom(7))
                damaged.append(datagram.payload)
                assert damaged[0].acked == intact.acked > floor
            return real_send(datagram, kind=kind, deliver=deliver)

        campus.network.send = corrupt_first_call
        campus.workstation(0).venus.cache.invalidate_all()
        call = campus.sim.process(session.stat(f"{self.HOME}/f"))
        while server.corrupt_rejected == 0:
            campus.sim.step()
        assert conn.floor == floor and cache == kept
        campus.sim.run_until_complete(call)  # the retransmission is intact
        assert conn.floor >= damaged[0].acked and len(cache) == 1


class TestGiveUp:
    """A call abandoned after ``max_retries`` must not stall the floor."""

    HOME = "/vice/usr/alice"

    @pytest.mark.parametrize("cut", ["partition", "blackout"])
    def test_abandoned_store_leaves_no_gap(self, cut):
        campus = small_campus(clusters=2, workstations_per_cluster=1,
                              rpc_costs=RpcCosts(retransmit_timeout=0.5, max_retries=1))
        session = alice_session(campus, "ws1-0")  # server0 is across the bridge
        run(campus, session.write_file(f"{self.HOME}/f", b"v1"))
        server = campus.server(0)
        inode = server.volumes["u-alice"].resolve("/f")
        version, serving = inode.version, server.node.calls_received.count("StoreByFid")
        captured = tap_calls(campus, "server0")
        store = campus.sim.process(session.write_file(f"{self.HOME}/f", b"v2" * 50_000))
        while server.node.calls_received.count("StoreByFid") == serving:
            campus.sim.step()
        if cut == "partition":
            campus.network.partition("cluster0")
            error = NoRoute
        else:
            campus.network.install_link_faults(
                "cluster0", LinkFaults(WorkloadRandom(1), loss=1.0))
            error = ServerUnavailable
        with pytest.raises(error):
            campus.sim.run_until_complete(store)
        settle(campus, 60.0)
        if cut == "partition":
            campus.network.heal("cluster0")
        else:
            campus.network.install_link_faults("cluster0", None)

        venus = campus.workstation("ws1-0").venus
        for index in range(300):
            venus.cache.invalidate_all()
            run(campus, session.stat(f"{self.HOME}/f"))
        conn = next(iter(venus._connections.values()))
        assert conn.acked == conn.calls_made - 1 and not conn._stragglers
        assert all(len(cache) <= 2 for node in all_nodes(campus)
                   for cache in node._reply_cache.values())
        # The original datagram, arriving after its caller gave up, is dropped.
        stale = server.node.stale_duplicates
        server.host.nic.inbox.put(store_call(captured))
        settle(campus)
        assert server.node.stale_duplicates == stale + 1
        assert server.node.calls_received.count("StoreByFid") == serving + 1
        assert inode.version == version + 1  # applied once, never again


class TestCampusDay:
    def test_kept_replies_stay_within_two_per_connection(self):
        """The exact regression gate for the peak-RSS claim: a 2 x 10
        campus day ends with at-most-once state sized by connections, not
        by calls made."""
        campus = ITCSystem(SystemConfig(clusters=2, workstations_per_cluster=10,
                                        functional_payload_crypto=False))
        users = provision_campus(campus, hot_files=8, cold_files=12,
                                 shared_files=12, binary_files=8)
        summary = run_campus_day(campus, users, duration=600.0, warmup=0.0)
        assert summary["failures"] == 0
        kept = calls = 0
        for node in all_nodes(campus):
            held = campus.metrics.value(f"rpc.{node.host.name}.replies_kept")["value"]
            assert held <= 2 * len(node.connections)
            kept += held
            calls += node.calls_received.total
        connections = len({conn_id for node in all_nodes(campus)
                           for conn_id in node.connections})
        assert connections >= 20 and calls > 10 * connections
        assert 0 < kept <= 2 * connections


class TestCountersAndIntrospection:
    def test_handshakes_counted_both_sides(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file("/vice/usr/alice/f", b"x"))
        client_node = campus.workstation(0).venus.node
        server_node = campus.server(0).node
        assert client_node.handshakes_completed == 1
        assert server_node.handshakes_completed == 1

    def test_active_connections_property(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file("/vice/usr/alice/f", b"x"))
        assert campus.workstation(0).venus.node.active_connections == 1

    def test_invalid_transport_and_mode_rejected(self):
        campus = small_campus()
        host = campus.workstation(0).host
        from repro.rpc.node import RpcNode

        with pytest.raises(ValueError):
            RpcNode.__new__(RpcNode).__init__(host, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            RpcNode.__new__(RpcNode).__init__(host, server_mode="threads")


class TestCipherAccounting:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_every_sealed_byte_is_opened_by_the_peer(self, fast_path):
        """After an Andrew run (real payload crypto), what one end of a
        connection sealed is what the other end opened, in both directions."""
        campus = small_campus(payload_fast_path=fast_path)
        session = alice_session(campus)
        campus.populate(campus.volume("u-alice"), make_source_tree(), owner="alice")
        run(campus, AndrewBenchmark(session, "/vice/usr/alice/src",
                                    "/vice/usr/alice/target").run())
        client = campus.workstation(0).venus.node
        checked = 0
        for conn_id, ours in client.connections.items():
            theirs = campus.server(ours.server_name).node.connections[conn_id]
            caller = ours._ciphers[ours.client_name]
            callee = theirs._ciphers[ours.server_name]
            assert caller.bytes_encrypted == callee.bytes_decrypted > 0
            assert callee.bytes_encrypted == caller.bytes_decrypted > 0
            checked += 1
        assert checked >= 1


class TestKeyIsolation:
    def test_sessions_for_same_user_have_distinct_keys(self):
        """Every connection derives a fresh session key (per-session keys
        'reduce the risk of exposure of authentication keys', §3.4)."""
        campus = small_campus(workstations_per_cluster=2)
        a = alice_session(campus, 0)
        b = alice_session(campus, 1)
        run(campus, a.write_file("/vice/usr/alice/f", b"x"))
        run(campus, b.read_file("/vice/usr/alice/f"))
        keys = {
            conn.session_key
            for conn in campus.server(0).node.connections.values()
            if conn.username == "alice"
        }
        assert len(keys) == 2

    def test_session_key_never_equals_user_key(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file("/vice/usr/alice/f", b"x"))
        user_key = derive_user_key("alice", "alice-pw")
        for conn in campus.server(0).node.connections.values():
            assert conn.session_key != user_key
