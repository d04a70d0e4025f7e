"""Unit tests for a server's client table: advisory locks and callback
promises, one record per fid (``repro.vice.clients``)."""

import pytest

from repro.errors import LockConflict
from repro.rpc.connection import Connection
from repro.vice.clients import ClientState


class TestLockTable:
    """The §3.6 lock half of the table (the class name predates it)."""

    def test_multiple_readers_allowed(self):
        locks = ClientState()
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.acquire("fid1", "b@ws1", exclusive=False)
        assert locks.lock_holders("fid1") == {"a@ws0": "read", "b@ws1": "read"}

    def test_writer_excludes_readers(self):
        locks = ClientState()
        locks.acquire("fid1", "writer@ws0", exclusive=True)
        with pytest.raises(LockConflict, match="fid1 is write-locked by writer@ws0"):
            locks.acquire("fid1", "reader@ws1", exclusive=False)

    def test_readers_exclude_writer(self):
        locks = ClientState()
        locks.acquire("fid1", "reader@ws1", exclusive=False)
        with pytest.raises(LockConflict, match="fid1 has active readers"):
            locks.acquire("fid1", "writer@ws0", exclusive=True)

    def test_two_writers_conflict(self):
        locks = ClientState()
        locks.acquire("fid1", "a@ws0", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("fid1", "b@ws1", exclusive=True)

    def test_reader_upgrades_to_writer_alone(self):
        locks = ClientState()
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.acquire("fid1", "a@ws0", exclusive=True)
        assert locks.lock_holders("fid1") == {"a@ws0": "write"}

    def test_release_allows_next(self):
        locks = ClientState()
        locks.acquire("fid1", "a@ws0", exclusive=True)
        locks.release("fid1", "a@ws0")
        locks.acquire("fid1", "b@ws1", exclusive=True)

    def test_release_is_idempotent(self):
        locks = ClientState()
        locks.release("fid1", "a@ws0")
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.release("fid1", "a@ws0")
        locks.release("fid1", "a@ws0")

    def test_conflicts_counted(self):
        locks = ClientState()
        locks.acquire("f", "a", exclusive=True)
        raised = 0
        for _ in range(3):
            with pytest.raises(LockConflict):
                locks.acquire("f", "b", exclusive=True)
            raised += 1
        assert raised == 3

    def test_table_shrinks_when_empty(self):
        locks = ClientState()
        locks.acquire("f", "a", exclusive=False)
        locks.release("f", "a")
        assert locks.locks_held == 0

    def test_independent_keys(self):
        locks = ClientState()
        locks.acquire("f1", "a", exclusive=True)
        locks.acquire("f2", "b", exclusive=True)  # no conflict


def make_conn(cid):
    return Connection(cid, f"ws-{cid}", "server0", "user", "none")


class TestCallbackRegistry:
    """The callback-promise half of the table (the class name predates it)."""

    def test_register_and_holders(self):
        registry = ClientState()
        conn = make_conn("c1")
        registry.promise("fid1", conn)
        assert registry.holders("fid1") == [conn]

    def test_exclude_the_mutator(self):
        registry = ClientState()
        writer = make_conn("w")
        reader = make_conn("r")
        registry.promise("fid1", writer)
        registry.promise("fid1", reader)
        assert registry.holders("fid1", exclude=writer) == [reader]

    def test_register_idempotent_per_connection(self):
        registry = ClientState()
        conn = make_conn("c1")
        registry.promise("fid1", conn)
        registry.promise("fid1", conn)
        assert registry.promises_held == 1

    def test_forget_holder(self):
        registry = ClientState()
        a, b = make_conn("a"), make_conn("b")
        registry.promise("fid1", a)
        registry.promise("fid1", b)
        registry.forget("fid1", [a])
        assert registry.holders("fid1") == [b]

    def test_state_size_measures_server_memory(self):
        registry = ClientState()
        for index in range(5):
            registry.promise(f"fid{index}", make_conn(f"c{index}"))
        assert registry.promises_held == 5

    def test_holders_keep_first_promise_order(self):
        """Breaks are spawned in holder order, so this order is what keeps
        a campus day's virtual numbers fixed."""
        registry = ClientState()
        a, b, c = make_conn("a"), make_conn("b"), make_conn("c")
        registry.promise("fid1", a)
        assert registry.holders("fid1") == [a]
        registry.promise("fid1", b)
        assert registry.holders("fid1") == [a, b]
        again = make_conn("a")  # a new Connection object for a's id
        registry.promise("fid1", again)
        held = registry.holders("fid1")
        assert held == [again, b] and held[0] is again
        registry.forget("fid1", [b])
        assert registry.holders("fid1") == [again]
        registry.promise("fid1", c)
        assert registry.holders("fid1") == [again, c]
        assert registry.holders("fid1", exclude=c) == [again]
        assert registry.promises_held == 2


class TestOneTable:
    def test_forget_counts_what_was_broken(self):
        table = ClientState()
        a, b = make_conn("a"), make_conn("b")
        table.promise("fid1", a)
        table.promise("fid1", b)
        table.forget("fid1", [a, b])
        assert table.holders("fid1") == []
        assert (table.promises_held, table.promises_broken) == (0, 2)

    def test_a_fid_keeps_its_lock_when_its_promises_go(self):
        table = ClientState()
        a = make_conn("a")
        table.promise("fid1", a)
        table.acquire("fid1", "u@ws-a", exclusive=True)
        table.forget("fid1", [a])
        assert table.lock_holders("fid1") == {"u@ws-a": "write"}
        table.release("fid1", "u@ws-a")
        assert table.lock_holders("fid1") == {} and not table._fids

    def test_reset_forgets_promises_and_locks(self):
        table = ClientState()
        a = make_conn("a")
        table.promise("fid1", a)
        table.forget("fid1", [a])
        table.promise("fid2", a)
        table.acquire("fid2", "u@ws-a", exclusive=False)
        table.reset()
        assert table.holders("fid2") == [] and table.lock_holders("fid2") == {}
        assert (table.promises_held, table.promises_broken, table.locks_held) == (0, 0, 0)
