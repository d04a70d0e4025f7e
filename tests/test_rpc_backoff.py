"""Tests for RPC retransmission backoff: determinism, growth, metrics.

The defaults (``retransmit_backoff=1.0``, ``retransmit_jitter=0.0``)
must reproduce the historical fixed-interval retransmission exactly —
same virtual timings, and nothing drawn from the node's random stream —
so unconfigured campuses replay byte-for-byte across this change.
"""

import pytest

from repro.crypto import derive_user_key
from repro.errors import ServerUnavailable
from repro.hosts import Host
from repro.net import Network
from repro.rpc import RpcCosts, RpcNode
from repro.sim import Simulator
from repro.system.config import SystemConfig
from repro.vice.replication import ReplicationConfig

ALICE_KEY = derive_user_key("alice", "pw")
KEYS = {"alice": ALICE_KEY}


def build_pair(sim, costs=None):
    net = Network(sim)
    net.add_segment("lan")
    client_host = Host(sim, net, "client", "lan")
    server_host = Host(sim, net, "server", "lan", cpu_speed=2.0)
    server = RpcNode(server_host, auth_key_lookup=lambda user: KEYS[user])
    client = RpcNode(client_host, costs=costs)
    server.register("Ping", lambda conn, args, payload: ({"ok": True}, b""))
    return client, server, client_host, server_host


def elapsed_until_unavailable(costs=None):
    """Virtual seconds a call against a crashed server takes to fail,
    plus the client node (for counter inspection)."""
    sim = Simulator()
    client, _server, _ch, server_host = build_pair(sim, costs=costs)

    def go():
        conn = yield from client.connect("server", "alice", ALICE_KEY)
        server_host.crash()
        start = sim.now
        try:
            yield from client.call(conn, "Ping", {})
        except ServerUnavailable:
            return sim.now - start
        raise AssertionError("call against a dead server succeeded")

    return sim.run_until_complete(sim.process(go())), client


class TestDefaults:
    def test_default_costs_keep_fixed_intervals(self):
        # attempts are evenly spaced: total = (retries + 1) * per-attempt.
        costs = RpcCosts.revised()
        elapsed, client = elapsed_until_unavailable()
        assert client.retransmissions == costs.max_retries
        per_attempt = elapsed / (costs.max_retries + 1)
        # Every attempt waited the same base timeout (loss-free wire).
        assert per_attempt == pytest.approx(elapsed - costs.max_retries * per_attempt,
                                            rel=1e-9)

    def test_default_costs_draw_nothing_from_the_rng(self):
        # The backoff branch must not touch the random stream when it is
        # configured off, or pre-change runs would not replay.
        sim = Simulator()
        client, _server, _ch, server_host = build_pair(sim)

        def go():
            conn = yield from client.connect("server", "alice", ALICE_KEY)
            server_host.crash()
            state = client.rng._rng.getstate()
            try:
                yield from client.call(conn, "Ping", {})
            except ServerUnavailable:
                pass
            return state == client.rng._rng.getstate()

        assert sim.run_until_complete(sim.process(go()))

    def test_replay_is_byte_identical(self):
        first, _ = elapsed_until_unavailable()
        second, _ = elapsed_until_unavailable()
        assert first == second


class TestBackoff:
    def test_backoff_grows_the_intervals(self):
        base, _ = elapsed_until_unavailable()
        backed, _ = elapsed_until_unavailable(
            RpcCosts.revised().with_(retransmit_backoff=2.0)
        )
        # 4 attempts: fixed waits 4 units, doubling waits 1+2+4+8 = 15.
        assert backed / base == pytest.approx(15.0 / 4.0, rel=0.01)

    def test_jitter_is_seeded_and_deterministic(self):
        costs = RpcCosts.revised().with_(retransmit_backoff=2.0,
                                         retransmit_jitter=0.1)
        first, _ = elapsed_until_unavailable(costs)
        second, _ = elapsed_until_unavailable(costs)
        assert first == second
        unjittered, _ = elapsed_until_unavailable(
            RpcCosts.revised().with_(retransmit_backoff=2.0)
        )
        assert first != unjittered
        # Jitter perturbs each interval by at most +/-10%.
        assert abs(first - unjittered) / unjittered < 0.1

    def test_replicated_config_defaults_to_backoff(self):
        plain = SystemConfig().rpc_cost_model
        assert plain.retransmit_backoff == 1.0
        assert plain.retransmit_jitter == 0.0
        replicated = SystemConfig(replication=ReplicationConfig()).rpc_cost_model
        assert replicated.retransmit_backoff == 2.0
        assert replicated.retransmit_jitter == 0.1
        # An explicit override still wins.
        custom = RpcCosts.revised().with_(retransmit_backoff=3.0)
        assert SystemConfig(
            replication=ReplicationConfig(), rpc_costs=custom
        ).rpc_cost_model is custom


class TestMetrics:
    def test_retransmits_counted_by_destination(self):
        _elapsed, client = elapsed_until_unavailable()
        assert client.retransmits.count("server") == client.retransmissions
        assert client.retransmits.count("elsewhere") == 0

    def test_retransmit_counter_registered(self):
        sim = Simulator()
        client, _server, _ch, _sh = build_pair(sim)
        assert "rpc.client.retransmits" in sim.metrics.names("rpc.client.")
