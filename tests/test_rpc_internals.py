"""Tests for RPC internals: envelopes, reply cache, BUSY flow, messages."""

import pytest

from repro.crypto import derive_user_key
from repro.errors import FileNotFound, NotCustodian, ReproError
from repro.rpc import marshal
from repro.rpc.messages import (
    Envelope,
    Kind,
    decode_error,
    encode_error,
    maybe_raise,
)
from repro.rpc.node import _IN_PROGRESS, _REPLY_CACHE_WINDOW, _trim_reply_cache
from repro.workload import AndrewBenchmark, make_source_tree
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


class TestReplyCache:
    def test_reply_cache_bounded(self):
        campus = small_campus()
        session = alice_session(campus)
        home = "/vice/usr/alice"
        run(campus, session.write_file(f"{home}/f", b"x"))
        # Push far more calls than the cache limit through one connection.
        for index in range(_REPLY_CACHE_WINDOW + 40):
            run(campus, session.stat(f"{home}/f"))
            campus.workstation(0).venus.cache.invalidate_all()
        server = campus.server(0)
        for cache in server.node._reply_cache.values():
            assert len(cache) <= _REPLY_CACHE_WINDOW + 1

    def test_trim_evicts_oldest_finished_and_spares_in_progress(self):
        cache = {seq: _IN_PROGRESS for seq in range(_REPLY_CACHE_WINDOW + 3)}
        _trim_reply_cache(cache)  # what admission sees: all live, nothing to evict
        assert len(cache) == _REPLY_CACHE_WINDOW + 3
        for seq in (7, 2, 90, 40):  # calls finish out of order
            cache[seq] = b"reply"
        _trim_reply_cache(cache)  # what the serving side sees
        assert len(cache) == _REPLY_CACHE_WINDOW
        assert [seq for seq in (2, 7, 40, 90) if seq in cache] == [90]

    def test_connection_close_drops_reply_cache(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file("/vice/usr/alice/f", b"x"))
        venus = campus.workstation(0).venus
        conn = next(iter(venus._connections.values()))
        venus.node.close_connection(conn)
        assert conn.connection_id not in venus.node._reply_cache


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
