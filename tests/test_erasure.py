"""Tests for repro.vice.erasure: codec, striping, degraded reads, rebuild.

The contract: with ``SystemConfig(erasure=ErasureConfig(k, m))`` every
volume is striped into k data + m parity fragments on distinct servers;
reads reconstruct from any k of the k+m members (degraded reads when
some are dead), writes re-encode with majority-of-stripe durability, and
the heartbeat controller rebuilds lost fragments onto spares.  With
``erasure=None`` (the default) the module is never even imported.
"""

import random
import subprocess
import sys

import pytest

from tests.helpers import run, small_campus

from repro.crypto import cipher
from repro.errors import IntegrityError, InvalidArgument, ReproError
from repro.faults.plan import server_crash_plan
from repro.vice.erasure import (
    ErasureConfig,
    decode,
    encode,
    fragment_length,
    plan_stripe,
    stripe_health,
)
from repro.vice.location import LocationDatabase, LocationEntry
from repro.workload import provision_campus, run_campus_day

HOME = "/vice/usr/alice"


def coded_campus(clusters=3, shape=(2, 1), workstations_per_cluster=2,
                 **overrides):
    """A campus with every volume striped ``shape[0]`` + ``shape[1]``."""
    return small_campus(
        clusters=clusters,
        workstations_per_cluster=workstations_per_cluster,
        erasure=ErasureConfig(data=shape[0], parity=shape[1]),
        **overrides,
    )


def settle(campus, seconds):
    """Let heartbeats, death declarations and rebuilds run."""
    campus.run(until=campus.sim.now + seconds)


def entry_for(campus, mount="/usr/alice"):
    entry, _rest = campus.replication_controller.location.resolve(mount)
    return entry


def session(campus, ws=0):
    return campus.login(ws, "alice", "alice-pw")


# ----------------------------------------------------------------------
# the GF(256) codec
# ----------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)])
    @pytest.mark.parametrize("size", [0, 1, 5, 257, 4099])
    def test_round_trip(self, k, m, size):
        data = bytes(range(256)) * (size // 256 + 1)
        data = data[:size]
        frags = encode(data, k, m)
        assert len(frags) == k + m
        assert all(len(f) == fragment_length(size, k) for f in frags)
        assert decode(dict(enumerate(frags)), k, m, size) == data

    def test_any_k_of_k_plus_m_reconstructs(self):
        import itertools

        k, m = 3, 2
        data = bytes(random.Random(7).randrange(256) for _ in range(1000))
        frags = encode(data, k, m)
        for subset in itertools.combinations(range(k + m), k):
            picked = {i: frags[i] for i in subset}
            assert decode(picked, k, m, len(data)) == data

    def test_randomized_property(self):
        rng = random.Random(42)
        for _ in range(25):
            k = rng.randrange(1, 6)
            m = rng.randrange(1, 4)
            size = rng.randrange(0, 3000)
            data = bytes(rng.randrange(256) for _ in range(size))
            frags = encode(data, k, m)
            alive = rng.sample(range(k + m), k)
            assert decode({i: frags[i] for i in alive}, k, m, size) == data

    def test_fewer_than_k_fragments_raises(self):
        frags = encode(b"x" * 100, 3, 2)
        with pytest.raises(ValueError):
            decode({0: frags[0], 1: frags[1]}, 3, 2, 100)

    def test_empty_file_needs_no_fragments(self):
        assert decode({}, 4, 2, 0) == b""
        assert fragment_length(0, 4) == 0

    def test_corrupt_sealed_fragment_is_detected(self):
        # Fragments ride inside the existing encrypt-then-MAC envelope;
        # a flipped byte anywhere in the sealed blob fails the tag check.
        key = bytes(range(32))
        frag = encode(b"stripe me" * 50, 2, 1)[1]
        sealed = bytearray(cipher.seal(key, b"\x00" * 8, frag))
        sealed[len(sealed) // 2] ^= 0x40
        with pytest.raises(IntegrityError):
            cipher.unseal(key, bytes(sealed))


# ----------------------------------------------------------------------
# configuration and placement
# ----------------------------------------------------------------------

class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErasureConfig(data=0, parity=1)
        with pytest.raises(ValueError):
            ErasureConfig(data=2, parity=0)
        with pytest.raises(ValueError):
            ErasureConfig(data=250, parity=7)

    def test_derived_properties(self):
        config = ErasureConfig(data=4, parity=2)
        assert config.width == 6
        assert config.storage_overhead == pytest.approx(1.5)

    def test_prototype_mode_is_refused(self):
        with pytest.raises(InvalidArgument):
            small_campus(mode="prototype", clusters=3,
                         erasure=ErasureConfig(data=2, parity=1))

    def test_exclusive_with_replication(self):
        from repro.vice.replication import ReplicationConfig

        with pytest.raises(InvalidArgument):
            small_campus(clusters=3, erasure=ErasureConfig(data=2, parity=1),
                         replication=ReplicationConfig(factor=2))

    def test_too_few_servers_is_refused(self):
        with pytest.raises(InvalidArgument):
            small_campus(clusters=2, erasure=ErasureConfig(data=2, parity=1))


class TestPlanStripe:
    def _db(self, entries=()):
        db = LocationDatabase()
        for i, (mount, replicas) in enumerate(entries):
            db.add(mount, f"vol{i}", replicas[0], replicas=replicas)
        return db

    def test_custodian_first_and_distinct(self):
        names = ["server0", "server1", "server2", "server3"]
        picked = plan_stripe(self._db(), names, "server2", 3)
        assert picked[0] == "server2"
        assert len(set(picked)) == 3
        assert set(picked) <= set(names)

    def test_balances_across_volumes(self):
        names = ["server0", "server1", "server2", "server3"]
        db = self._db([("/a", ["server0", "server1", "server2"])])
        picked = plan_stripe(db, names, "server0", 3)
        # server3 holds nothing yet, so it must be chosen over the
        # already-loaded server1/server2.
        assert "server3" in picked

    def test_too_few_servers_raises(self):
        with pytest.raises(InvalidArgument):
            plan_stripe(self._db(), ["server0", "server1"], "server0", 3)


# ----------------------------------------------------------------------
# striped store and fetch
# ----------------------------------------------------------------------

class TestStripedIO:
    def test_write_lands_fragments_on_every_member(self):
        campus = coded_campus()
        alice = session(campus)
        data = b"stripe payload " * 64
        run(campus, alice.write_file(f"{HOME}/f", data))
        # The store returns at quorum; let the propagation tail land.
        settle(campus, 5.0)

        entry = entry_for(campus)
        assert entry.erasure == (2, 1)
        assert len(entry.replicas) == 3
        frag_len = fragment_length(len(data), 2)
        for index, name in enumerate(entry.replicas):
            volume = campus.server(name).volumes["u-alice"]
            assert volume.erasure_index == index
            vnode = volume.resolve(f"/f").number
            assert len(volume.fragments[vnode]) == frag_len
            assert volume.fragment_true_sizes[vnode] == len(data)
            # File bodies live only as fragments.
            assert volume.inode_by_vnode(vnode).data == b""

    def test_read_back_and_stat_report_true_size(self):
        campus = coded_campus()
        alice = session(campus)
        data = b"0123456789" * 33  # not a multiple of k: padding truncated
        run(campus, alice.write_file(f"{HOME}/f", data))
        # A second workstation has no cache; it must fetch fragments.
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == data
        stat = run(campus, other.stat(f"{HOME}/f"))
        assert stat["size"] == len(data)

    def test_overwrite_reencodes(self):
        campus = coded_campus()
        alice = session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"v1" * 100))
        run(campus, alice.write_file(f"{HOME}/f", b"second version!" * 9))
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == b"second version!" * 9
        entry = entry_for(campus)
        for name in entry.replicas:
            volume = campus.server(name).volumes["u-alice"]
            vnode = volume.resolve("/f").number
            assert volume.fragment_true_sizes[vnode] == len(b"second version!" * 9)

    def test_unlink_drops_fragments_everywhere(self):
        campus = coded_campus()
        alice = session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"doomed" * 50))
        run(campus, alice.unlink(f"{HOME}/f"))
        for name in entry_for(campus).replicas:
            volume = campus.server(name).volumes["u-alice"]
            assert volume.fragments == {}
            assert volume.fragment_bytes == 0

    def test_storage_overhead_is_k_plus_m_over_k(self):
        campus = coded_campus(shape=(2, 1))
        alice = session(campus)
        data = b"x" * 10_000
        run(campus, alice.write_file(f"{HOME}/big", data))
        settle(campus, 5.0)
        total = sum(
            volume.fragment_bytes
            for server in campus.servers
            for volume in server.volumes.values()
            if volume.volume_id == "u-alice"
        )
        assert total == pytest.approx(1.5 * len(data), rel=0.01)

    def test_populate_matches_protocol_writes(self):
        campus = coded_campus()
        volume = campus.volume("u-alice")
        campus.populate(volume, {"/seeded": b"pre-loaded bytes" * 20},
                        owner="alice")
        alice = session(campus)
        assert run(campus, alice.read_file(f"{HOME}/seeded")) == b"pre-loaded bytes" * 20

    def test_whole_file_fetch_of_a_striped_file_is_refused(self):
        # The inode of a striped file holds no body; a fragment-unaware
        # FetchByFid must be told so, never handed the empty string.
        campus = coded_campus()
        alice = session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"only in fragments"))
        venus = campus.workstation(0).venus
        fid = campus.volume("u-alice").fid_of("/f")

        def whole_file_fetch():
            conn = yield from venus._conn("alice", entry_for(campus).custodian)
            return (yield from venus.node.call(conn, "FetchByFid", {"fid": fid}))

        with pytest.raises(InvalidArgument, match="FetchFragment"):
            run(campus, whole_file_fetch())

    def test_read_only_clone_is_refused(self):
        campus = coded_campus()
        volume = campus.volume("u-alice")
        with pytest.raises(InvalidArgument):
            volume.clone("u-alice-ro")


# ----------------------------------------------------------------------
# degraded reads
# ----------------------------------------------------------------------

class TestDegradedReads:
    def test_contents_identical_with_zero_and_one_dead(self):
        # The satellite contract: virtual outputs identical with
        # 0, 1, ..., m dead servers.  Shape (2, 1) has m = 1.
        data = b"parity reconstructs me " * 40
        contents = []
        for dead in (0, 1):
            campus = coded_campus()
            alice = session(campus)
            run(campus, alice.write_file(f"{HOME}/f", data))
            entry = entry_for(campus)
            if dead:
                # Kill a *data* holder (slot 1) so a probe actually fails
                # and the read reconstructs from the parity fragment.
                campus.server(entry.replicas[1]).host.crash()
                settle(campus, 40.0)
            other = session(campus, ws=1)
            contents.append(run(campus, other.read_file(f"{HOME}/f")))
            degraded = sum(ws.venus.degraded_reads for ws in campus.workstations)
            assert degraded == (1 if dead else 0)
        assert contents[0] == contents[1] == data

    def test_custodian_crash_fails_over_and_reads_through(self):
        campus = coded_campus()
        alice = session(campus)
        data = b"survives custodian loss" * 30
        run(campus, alice.write_file(f"{HOME}/f", data))
        old = entry_for(campus).custodian
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == data
        campus.server(old).host.crash()
        settle(campus, 40.0)
        # ws1's hint still names the dead custodian and its copy is gone:
        # the striped fetch itself must refresh the hint and retry.
        venus = campus.workstation(1).venus
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == old
        venus.cache.remove("/usr/alice/f")
        assert run(campus, other.read_file(f"{HOME}/f")) == data
        assert venus.failovers == 1
        entry = entry_for(campus)
        assert entry.custodian != old
        assert venus.hints.lookup("/usr/alice/f")["custodian"] == entry.custodian
        # Promotion does not shrink the stripe: the dead slot stays
        # listed so its fragment index is preserved for rebuild.
        assert old in entry.replicas

    def test_more_than_m_dead_members_is_an_outage(self):
        campus = coded_campus()
        alice = session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"gone" * 100))
        entry = entry_for(campus)
        for name in entry.replicas[1:]:
            campus.server(name).host.crash()
        settle(campus, 40.0)
        other = session(campus, ws=1)
        with pytest.raises(ReproError):
            run(campus, other.read_file(f"{HOME}/f"))

    # One store-ack rule for both schemes: a store needs max(k, majority)
    # holders, k being how many members it takes to read the volume back
    # (1 for whole copies).  So each scheme rides out f = members - that
    # many crashes the controller has not even noticed yet, and refuses
    # the store — rather than ack a write too few members hold — beyond.
    @pytest.mark.parametrize("scheme,dead,acked", [
        pytest.param(3, 1, True, id="copies3-1dead"),
        pytest.param(3, 2, False, id="copies3-2dead"),
        pytest.param((2, 1), 1, True, id="2+1-1dead"),
        pytest.param((2, 1), 2, False, id="2+1-2dead"),
        pytest.param((4, 2), 2, True, id="4+2-2dead"),
        pytest.param((4, 2), 3, False, id="4+2-3dead"),
    ])
    def test_store_ack_rule(self, scheme, dead, acked):
        if isinstance(scheme, tuple):
            campus = coded_campus(clusters=sum(scheme), shape=scheme)
        else:
            from repro.vice.replication import ReplicationConfig

            campus = small_campus(clusters=scheme, workstations_per_cluster=2,
                                  replication=ReplicationConfig(factor=scheme))
        alice = session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"before"))
        entry = entry_for(campus)
        agent = campus.server(entry.custodian).replication
        for name in entry.replicas[-dead:]:
            campus.server(name).host.crash()
        # Inside the detection window: membership still lists the dead.
        if not acked:
            with pytest.raises(ReproError, match="required .* acks"):
                run(campus, alice.write_file(f"{HOME}/f", b"too few holders"))
            assert agent.propagation_failures == 1
            return
        run(campus, alice.write_file(f"{HOME}/f", b"in the window " * 20))
        assert agent.propagation_failures == 0
        # And after it, once the controller has declared them dead.
        settle(campus, 40.0)
        run(campus, alice.write_file(f"{HOME}/f", b"after the deaths " * 20))
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == b"after the deaths " * 20


# ----------------------------------------------------------------------
# background rebuild
# ----------------------------------------------------------------------

class TestRebuild:
    def test_dead_slot_is_rebuilt_onto_a_spare(self):
        # Width 3 on 4 servers leaves one spare per stripe.
        campus = coded_campus(clusters=4)
        alice = session(campus)
        data = b"rebuild my fragment " * 50
        run(campus, alice.write_file(f"{HOME}/f", data))

        entry = entry_for(campus)
        victim = entry.replicas[1]
        campus.server(victim).host.crash()
        settle(campus, 60.0)

        controller = campus.replication_controller
        assert controller.rebuilds >= 1
        assert controller.rebuild_failures == 0
        entry = entry_for(campus)
        assert victim not in entry.replicas
        assert len(set(entry.replicas)) == 3
        # The whole campus is back to full stripe health even though
        # the crashed server is still down.
        assert stripe_health(campus) == 1.0
        repairs = sum(s.replication.stripe_repairs for s in campus.servers
                      if s.replication is not None)
        traffic = sum(s.replication.rebuild_bytes for s in campus.servers
                      if s.replication is not None)
        assert repairs >= 1
        assert traffic > 0
        # The rebuilt fragment actually serves reads.
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == data

    def test_rebuild_is_deterministic_under_a_seeded_plan(self):
        def one_run():
            campus = coded_campus(
                clusters=4,
                functional_payload_crypto=False,
                fault_plan=server_crash_plan(server="server1", at=100.0,
                                             outage=600.0, seed=3),
            )
            with campus.batch_setup():
                users = provision_campus(campus, hot_files=3, cold_files=3,
                                         shared_files=3, binary_files=2)
            summary = run_campus_day(campus, users, duration=300.0, warmup=60.0)
            controller = campus.replication_controller
            traffic = sum(s.replication.rebuild_bytes for s in campus.servers
                          if s.replication is not None)
            return (summary, controller.rebuilds, controller.rebuild_failures,
                    traffic, stripe_health(campus))

        first, second = one_run(), one_run()
        assert first == second
        assert first[1] >= 1  # the crash really triggered rebuilds

    def test_rejoin_rebuilds_the_returning_members_slots(self):
        campus = coded_campus()  # 3 servers, no spare: heal at rejoin
        alice = session(campus)
        data = b"heal me on rejoin " * 40
        run(campus, alice.write_file(f"{HOME}/f", data))

        entry = entry_for(campus)
        victim = entry.replicas[1]
        campus.server(victim).host.crash()
        settle(campus, 40.0)
        # No spare: the stripe stays degraded while the member is down.
        assert stripe_health(campus) < 1.0
        run(campus, alice.write_file(f"{HOME}/f", b"written while degraded" * 20))

        campus.server(victim).host.recover()
        settle(campus, 60.0)
        assert campus.replication_controller.rejoins == 1
        assert stripe_health(campus) == 1.0
        # The rejoined member's fragment reflects the degraded-window write.
        other = session(campus, ws=1)
        assert run(campus, other.read_file(f"{HOME}/f")) == b"written while degraded" * 20


# ----------------------------------------------------------------------
# byte-identity when erasure is off
# ----------------------------------------------------------------------

class TestByteIdentity:
    def _never_imports_the_module(self, campus_expr):
        script = (
            "import sys; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests')\n"
            "from helpers import small_campus, alice_session, run\n"
            "from repro.vice.replication import ReplicationConfig\n"
            f"campus = {campus_expr}\n"
            "alice = alice_session(campus)\n"
            "run(campus, alice.write_file('/vice/usr/alice/f', b'plain'))\n"
            "assert run(campus, alice.read_file('/vice/usr/alice/f')) == b'plain'\n"
            "assert 'repro.vice.erasure' not in sys.modules, 'erasure imported'\n"
            "print('OK')\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, cwd=".")
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    def test_plain_campus_never_imports_the_module(self):
        self._never_imports_the_module("small_campus()")

    def test_replicated_campus_never_imports_the_module(self):
        # The control plane it shares with coded campuses is not the codec.
        self._never_imports_the_module(
            "small_campus(clusters=2, replication=ReplicationConfig(factor=2))")

    def test_plain_snapshots_and_location_records_have_no_new_keys(self):
        campus = small_campus()
        volume = campus.volume("u-alice")
        snap = volume.snapshot()
        assert set(snap) == {"volume_id", "name", "quota_bytes", "read_only",
                             "owner", "cloned_from", "nodes"}
        entry, _ = campus._location_master.resolve("/usr/alice")
        assert "erasure" not in entry.as_dict()

    def test_location_entry_round_trips_erasure(self):
        entry = LocationEntry(mount_path="/v", volume_id="v1",
                              custodian="server0",
                              replicas=["server0", "server1", "server2"],
                              erasure=[2, 1])
        record = entry.as_dict()
        assert record["erasure"] == [2, 1]
        back = LocationEntry.from_dict(record)
        assert back.erasure == (2, 1)
        assert back.replicas == entry.replicas
