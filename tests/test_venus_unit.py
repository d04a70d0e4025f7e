"""Focused unit tests for Venus internals not covered by integration tests."""

import pytest

from repro.errors import (
    IsADirectory,
    LeaseExpired,
    NoSpace,
    NotADirectory,
    NotCustodian,
    ServerUnavailable,
)
from repro.venus.venus import Venus
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


class TestFidHelpers:
    def test_rw_fid_strips_replica_suffix(self):
        assert Venus._rw_fid("vol-ro.5") == "vol.5"
        assert Venus._rw_fid("vol.5") == "vol.5"

    def test_fid_server_for_new_fid(self):
        campus = small_campus()
        venus = campus.workstation(0).venus
        entry = {"custodian": "server0", "ro_servers": [], "mount_path": "/usr/alice"}
        assert venus._fid_server(entry, "new:/usr/alice/x") == "server0"


class TestOpenSemantics:
    def test_open_directory_as_file_rejected(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.mkdir(f"{HOME}/d"))
        with pytest.raises((IsADirectory, NotADirectory)):
            run(campus, session.open(f"{HOME}/d", "r"))

    def test_concurrent_opens_share_entry(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        fd1 = run(campus, session.open(f"{HOME}/f", "r"))
        fd2 = run(campus, session.open(f"{HOME}/f", "r"))
        venus = campus.workstation(0).venus
        entry = venus.cache.lookup("/usr/alice/f")
        assert entry.open_count == 2
        run(campus, session.close(fd1))
        run(campus, session.close(fd2))
        assert entry.open_count == 0

    def test_open_entry_survives_eviction_pressure(self):
        campus = small_campus(cache_max_bytes=5000)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/pinned", b"p" * 3000))
        fd = run(campus, session.open(f"{HOME}/pinned", "r"))
        # Pull in other files to force eviction pressure.
        for index in range(3):
            run(campus, session.write_file(f"{HOME}/fill{index}", b"f" * 1500))
            run(campus, session.read_file(f"{HOME}/fill{index}"))
        venus = campus.workstation(0).venus
        assert venus.cache.lookup("/usr/alice/pinned") is not None
        run(campus, session.close(fd))

    def test_oversized_file_raises_nospace(self):
        campus = small_campus(cache_max_bytes=1000)
        session = alice_session(campus)
        # Writing works: the store reaches the custodian even though the
        # resulting copy cannot be kept in the cache...
        run(campus, session.write_file(f"{HOME}/big", b"B" * 5000))
        assert campus.volume("u-alice").read("/big") == b"B" * 5000
        assert campus.workstation(0).venus.cache.lookup("/usr/alice/big") is None
        # ...but fetching it back cannot fit the cache: the whole-file
        # architecture's known limitation (files must fit the cache disk).
        with pytest.raises(NoSpace):
            run(campus, session.read_file(f"{HOME}/big"))


class TestPendingBreakBookkeeping:
    def test_pending_breaks_bounded(self):
        campus = small_campus()
        venus = campus.workstation(0).venus
        for index in range(600):
            venus._pending_breaks[f"vol.{index}"] = float(index)
        # Trigger the pruning path via the handler.
        def handler():
            result = yield from venus._break_callback_handler(
                None, {"fid": "vol.9999"}, b""
            )
            return result

        run(campus, handler())
        assert len(venus._pending_breaks) <= 512

    def test_break_for_cached_file_does_not_accumulate(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"x"))
        venus = campus.workstation(0).venus
        entry = venus.cache.lookup("/usr/alice/f")

        def handler():
            yield from venus._break_callback_handler(None, {"fid": entry.fid}, b"")

        run(campus, handler())
        assert entry.fid not in venus._pending_breaks
        assert not entry.callback_valid


class TestConnectionManagement:
    def test_connections_reused_per_user_server(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/a", b"1"))
        run(campus, session.write_file(f"{HOME}/b", b"2"))
        server = campus.server(0)
        # One user connection (plus none extra for the second op).
        user_conns = [
            c for c in server.node.connections.values() if c.username == "alice"
        ]
        assert len(user_conns) == 1

    def test_logout_closes_connections(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/a", b"1"))
        venus = campus.workstation(0).venus
        assert len(venus._connections) == 1
        session.logout()
        assert len(venus._connections) == 0

    def test_multiple_users_multiple_connections(self):
        campus = small_campus()
        campus.add_user("bob", "bob-pw")
        alice = alice_session(campus)
        bob = campus.login(0, "bob", "bob-pw")
        run(campus, alice.write_file(f"{HOME}/a", b"1"))
        run(campus, bob.listdir("/vice/usr"))
        venus = campus.workstation(0).venus
        assert len(venus._connections) == 2


class TestStatCaching:
    def test_stat_served_from_valid_cache_entry(self):
        campus = small_campus(mode="revised")
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"xyz"))
        server = campus.server(0)
        before = server.node.calls_received.total
        status = run(campus, session.stat(f"{HOME}/f"))
        assert status["size"] == 3
        assert server.node.calls_received.total == before  # no server call

    def test_stat_of_uncached_goes_to_server(self):
        campus = small_campus(mode="revised")
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"xyz"))
        campus.workstation(0).venus.cache.remove("/usr/alice/f")
        server = campus.server(0)
        before = server.call_mix.count("status")
        run(campus, session.stat(f"{HOME}/f"))
        assert server.call_mix.count("status") == before + 1


class TestOneRetryRule:
    """A pathname call, a fid call and a striped fetch follow a stale hint
    through a referral, and a dead custodian through ``_refresh_entry``,
    the same way: same targets in the same order, same hint afterwards."""

    PATH, FID = "/usr/alice/f", "u-alice.2"

    def _venus(self, error, ro_servers=()):
        """Venus at ws0 of a two-server campus whose hint names server0;
        ``node.call`` is scripted: server0 answers ``error``, the location
        query names server1, server1 answers."""
        campus = small_campus(clusters=2, workstations_per_cluster=1)
        alice_session(campus)
        venus = campus.workstation(0).venus
        hint = {"mount_path": "/usr/alice", "volume_id": "u-alice",
                "custodian": "server0", "ro_servers": list(ro_servers),
                "replicas": ["server0"], "erasure": [1, 0]}
        venus.hints.install(dict(hint))
        asked = []

        def call(conn, procedure, args, payload=b"", expect_bytes=0):
            asked.append((conn.server_name, procedure))
            if procedure == "GetCustodian":
                return dict(hint, custodian="server1", replicas=["server1"]), b""
            if conn.server_name == "server0":
                raise error
            return {"fid": self.FID, "frag_index": 0, "version": 1, "size": 4}, b"data"
            yield  # a generator, like the real RpcNode.call

        venus.node.call = call
        return campus, venus, asked

    def _entry_points(self, venus):
        hint = venus.hints.lookup(self.PATH)
        return {
            "pathname": ("GetStatus", lambda: venus._call_path(
                "alice", self.PATH, "GetStatus", {"path": self.PATH}, want_write=False)),
            "fid": ("GetStatusByFid", lambda: venus._vice_call(
                "alice", hint, None, "GetStatusByFid", {"fid": self.FID})),
            "striped": ("FetchFragment", lambda: venus._fetch_striped(
                "alice", hint, self.FID)),
        }

    @pytest.mark.parametrize("entry_point", ["pathname", "fid", "striped"])
    def test_stale_hint_follows_the_referral(self, entry_point):
        campus, venus, asked = self._venus(NotCustodian("server1"))
        procedure, go = self._entry_points(venus)[entry_point]
        result, _ = run(campus, go())
        assert result["fid"] == self.FID
        assert asked == [("server0", procedure), ("server1", procedure)]
        assert venus.hints.lookup(self.PATH)["custodian"] == "server1"
        assert venus.failovers == 0

    @pytest.mark.parametrize("error", [ServerUnavailable("down"), LeaseExpired("fenced")],
                             ids=["dead", "fenced"])
    @pytest.mark.parametrize("entry_point", ["pathname", "fid", "striped"])
    def test_dead_custodian_refreshes_the_hint(self, entry_point, error):
        campus, venus, asked = self._venus(error)
        venus.enable_failover(["server0", "server1"])
        procedure, go = self._entry_points(venus)[entry_point]
        result, _ = run(campus, go())
        assert result["fid"] == self.FID
        assert asked == [("server0", procedure), ("server0", "GetCustodian"),
                         ("server1", procedure)]
        assert venus.hints.lookup(self.PATH)["custodian"] == "server1"
        assert venus.failovers == 1

    @pytest.mark.parametrize("entry_point", ["pathname", "fid", "striped"])
    def test_without_failover_a_dead_custodian_is_the_callers_error(self, entry_point):
        campus, venus, asked = self._venus(ServerUnavailable("down"))
        procedure, go = self._entry_points(venus)[entry_point]
        with pytest.raises(ServerUnavailable):
            run(campus, go())
        assert asked == [("server0", procedure)]

    @pytest.mark.parametrize("entry_point", ["pathname", "fid", "striped"])
    def test_referral_loop_gives_up_after_four_attempts(self, entry_point):
        campus, venus, asked = self._venus(NotCustodian("server0"))
        procedure, go = self._entry_points(venus)[entry_point]
        with pytest.raises(NotCustodian):
            run(campus, go())
        assert asked == [("server0", procedure)] * 4

    def test_pathname_read_leaves_a_replica_that_refers_it_away(self):
        # The one case the old pathname loop answered differently: it
        # re-picked the nearest read-only site after every referral, so a
        # replica site that no longer held the clone was asked four times.
        campus, venus, asked = self._venus(NotCustodian("server1"), ro_servers=["server0"])
        _procedure, go = self._entry_points(venus)["pathname"]
        result, _ = run(campus, go())
        assert result["fid"] == self.FID
        assert asked == [("server0", "GetStatus"), ("server1", "GetStatus")]
