"""Unit tests for the advisory lock table and the callback registry."""

import pytest

from repro.errors import LockConflict
from repro.rpc.connection import Connection
from repro.vice.callbacks import CallbackRegistry
from repro.vice.locks import LockTable


class TestLockTable:
    def test_multiple_readers_allowed(self):
        locks = LockTable()
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.acquire("fid1", "b@ws1", exclusive=False)
        assert locks.holders("fid1") == {"a@ws0": "read", "b@ws1": "read"}

    def test_writer_excludes_readers(self):
        locks = LockTable()
        locks.acquire("fid1", "writer@ws0", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("fid1", "reader@ws1", exclusive=False)

    def test_readers_exclude_writer(self):
        locks = LockTable()
        locks.acquire("fid1", "reader@ws1", exclusive=False)
        with pytest.raises(LockConflict):
            locks.acquire("fid1", "writer@ws0", exclusive=True)

    def test_two_writers_conflict(self):
        locks = LockTable()
        locks.acquire("fid1", "a@ws0", exclusive=True)
        with pytest.raises(LockConflict):
            locks.acquire("fid1", "b@ws1", exclusive=True)

    def test_reader_upgrades_to_writer_alone(self):
        locks = LockTable()
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.acquire("fid1", "a@ws0", exclusive=True)
        assert locks.holders("fid1") == {"a@ws0": "write"}

    def test_release_allows_next(self):
        locks = LockTable()
        locks.acquire("fid1", "a@ws0", exclusive=True)
        locks.release("fid1", "a@ws0")
        locks.acquire("fid1", "b@ws1", exclusive=True)

    def test_release_is_idempotent(self):
        locks = LockTable()
        locks.release("fid1", "a@ws0")
        locks.acquire("fid1", "a@ws0", exclusive=False)
        locks.release("fid1", "a@ws0")
        locks.release("fid1", "a@ws0")

    def test_release_all_on_crash(self):
        locks = LockTable()
        locks.acquire("f1", "a@ws0", exclusive=True)
        locks.acquire("f2", "a@ws0", exclusive=False)
        locks.acquire("f2", "b@ws1", exclusive=False)
        locks.release_all("a@ws0")
        assert locks.holders("f1") == {}
        assert locks.holders("f2") == {"b@ws1": "read"}

    def test_conflicts_counted(self):
        locks = LockTable()
        locks.acquire("f", "a", exclusive=True)
        for _ in range(3):
            with pytest.raises(LockConflict):
                locks.acquire("f", "b", exclusive=True)
        assert locks.conflicts == 3

    def test_table_shrinks_when_empty(self):
        locks = LockTable()
        locks.acquire("f", "a", exclusive=False)
        locks.release("f", "a")
        assert len(locks) == 0

    def test_independent_keys(self):
        locks = LockTable()
        locks.acquire("f1", "a", exclusive=True)
        locks.acquire("f2", "b", exclusive=True)  # no conflict


def make_conn(cid):
    return Connection(cid, f"ws-{cid}", "server0", "user", "none")


class TestCallbackRegistry:
    def test_register_and_holders(self):
        registry = CallbackRegistry()
        conn = make_conn("c1")
        registry.register("fid1", conn)
        assert registry.holders("fid1") == [conn]

    def test_exclude_the_mutator(self):
        registry = CallbackRegistry()
        writer = make_conn("w")
        reader = make_conn("r")
        registry.register("fid1", writer)
        registry.register("fid1", reader)
        assert registry.holders("fid1", exclude=writer) == [reader]

    def test_register_idempotent_per_connection(self):
        registry = CallbackRegistry()
        conn = make_conn("c1")
        registry.register("fid1", conn)
        registry.register("fid1", conn)
        assert registry.state_size == 1
        assert registry.promises_made == 1

    def test_forget_holder(self):
        registry = CallbackRegistry()
        a, b = make_conn("a"), make_conn("b")
        registry.register("fid1", a)
        registry.register("fid1", b)
        registry.forget_holder("fid1", a)
        assert registry.holders("fid1") == [b]

    def test_state_size_measures_server_memory(self):
        registry = CallbackRegistry()
        for index in range(5):
            registry.register(f"fid{index}", make_conn(f"c{index}"))
        assert registry.state_size == 5
