"""Tests for the §3.2 write-back policy choice: store-on-close vs deferred."""

import pytest

from repro.errors import InvalidArgument
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


def deferred_campus(delay=10.0, retry_limit=None, **overrides):
    campus = small_campus(write_policy="deferred", **overrides)
    for workstation in campus.workstations:
        workstation.venus.flush_delay = delay
        if retry_limit is not None:
            workstation.venus.flush_retry_limit = retry_limit
    return campus


class TestStoreOnClose:
    def test_default_policy_is_on_close(self):
        campus = small_campus()
        assert campus.workstation(0).venus.write_policy == "on-close"

    def test_close_stores_immediately(self):
        campus = small_campus()
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"now"))
        assert campus.volume("u-alice").read("/f") == b"now"


class TestDeferredWriteBack:
    def test_close_does_not_store_immediately(self):
        campus = deferred_campus(delay=10.0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"later"))
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            campus.volume("u-alice").read("/f")

    def test_flush_happens_after_delay(self):
        campus = deferred_campus(delay=10.0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"later"))
        campus.run(until=campus.sim.now + 30.0)
        assert campus.volume("u-alice").read("/f") == b"later"

    def test_reads_see_own_writes_before_flush(self):
        campus = deferred_campus(delay=60.0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"mine"))
        assert run(campus, session.read_file(f"{HOME}/f")) == b"mine"

    def test_closes_coalesce_into_one_store(self):
        """The deferred policy's one advantage: repeated saves cost one
        store ("reduce server loads ... slower updates")."""
        campus = deferred_campus(delay=10.0)
        session = alice_session(campus)
        for revision in range(5):
            run(campus, session.write_file(f"{HOME}/f", b"rev%d" % revision))
        campus.run(until=campus.sim.now + 60.0)
        assert campus.volume("u-alice").read("/f") == b"rev4"
        server = campus.server(0)
        assert server.call_mix.count("store") <= 2
        assert campus.workstation(0).venus.coalesced_stores >= 3

    def test_crash_before_flush_loses_more(self):
        """The paper's reason for rejecting deferral: crash recovery.

        Store-on-close loses only open files; deferral loses every close
        inside the window.
        """
        campus = deferred_campus(delay=100.0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"doomed"))
        campus.workstation(0).crash()  # before the flush fires
        campus.workstation(0).recover()
        from repro.errors import FileNotFound

        with pytest.raises(FileNotFound):
            campus.volume("u-alice").read("/f")

    def test_other_workstations_stale_until_flush(self):
        """Deferral breaks "changes by one user are immediately visible"."""
        campus = deferred_campus(delay=50.0, workstations_per_cluster=2)
        writer = alice_session(campus, 0)
        reader = alice_session(campus, 1)
        run(campus, writer.write_file(f"{HOME}/f", b"v1"))
        campus.run(until=campus.sim.now + 60.0)  # v1 flushes
        run(campus, writer.write_file(f"{HOME}/f", b"v2"))  # deferred
        assert run(campus, reader.read_file(f"{HOME}/f")) == b"v1"  # stale!
        campus.run(until=campus.sim.now + 60.0)
        assert run(campus, reader.read_file(f"{HOME}/f")) == b"v2"

    def test_flush_all_writes_through_now(self):
        campus = deferred_campus(delay=1000.0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"urgent"))
        run(campus, campus.workstation(0).venus.flush_all("alice"))
        assert campus.volume("u-alice").read("/f") == b"urgent"

    def test_invalid_policy_rejected(self):
        with pytest.raises(InvalidArgument):
            small_campus(write_policy="psychic")


class TestFlushRetry:
    """Deferred write-back retries with backoff instead of dropping
    silently; exhausted retries are counted as lost writes."""

    def test_flush_retries_until_server_returns(self):
        campus = deferred_campus(delay=10.0, retry_limit=3)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"persistent"))
        campus.server(0).host.crash()
        # First flush attempt fails; recover during the backoff window.
        campus.run(until=campus.sim.now + 25.0)
        campus.server(0).host.recover()
        campus.run(until=campus.sim.now + 60.0)
        venus = campus.workstation(0).venus
        assert campus.volume("u-alice").read("/f") == b"persistent"
        assert venus.flush_retries >= 1
        assert venus.lost_writes == 0

    def test_exhausted_retries_count_a_lost_write(self):
        campus = deferred_campus(delay=5.0, retry_limit=2)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"doomed"))
        campus.server(0).host.crash()  # and never returns
        campus.run(until=campus.sim.now + 300.0)
        venus = campus.workstation(0).venus
        assert venus.lost_writes == 1
        assert venus.flush_retries == 2
        # The data survives locally (the cache is the only copy left).
        entry = venus.cache.lookup("/usr/alice/f")
        assert entry is not None and entry.dirty

    def test_retry_limit_zero_reproduces_single_attempt(self):
        campus = deferred_campus(delay=5.0, retry_limit=0)
        session = alice_session(campus)
        run(campus, session.write_file(f"{HOME}/f", b"one shot"))
        campus.server(0).host.crash()
        campus.run(until=campus.sim.now + 120.0)
        venus = campus.workstation(0).venus
        assert venus.flush_retries == 0
        assert venus.lost_writes == 1

    def test_lost_write_metric_registered(self):
        campus = deferred_campus()
        names = campus.metrics.names("venus.")
        host = campus.workstation(0).host.name
        assert f"venus.{host}.lost_writes" in names
        assert f"venus.{host}.flush_retries" in names
