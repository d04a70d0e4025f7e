"""Tests for the §3.3 surrogate server and its low-function PC clients."""

import pytest

from repro.errors import FileNotFound, NotAuthenticated, PermissionDenied
from repro.rpc.connection import Charged
from repro.virtue import PersonalComputer, SurrogateServer
from tests.helpers import alice_session, run, small_campus


@pytest.fixture
def setup():
    campus = small_campus(clusters=1, workstations_per_cluster=2)
    surrogate = SurrogateServer(campus.workstation(0), "pcnet0")
    pc = PersonalComputer(surrogate, "ibm-pc-1")
    run(campus, pc.attach("alice", "alice-pw"))
    return campus, surrogate, pc


class TestSurrogateBasics:
    def test_pc_reads_and_writes_vice(self, setup):
        campus, _surrogate, pc = setup
        run(campus, pc.write_file("/vice/usr/alice/pc.doc", b"from the PC"))
        assert run(campus, pc.read_file("/vice/usr/alice/pc.doc")) == b"from the PC"

    def test_pc_sees_files_made_by_workstations(self, setup):
        campus, _surrogate, pc = setup
        session = alice_session(campus, 1)
        run(campus, session.write_file("/vice/usr/alice/from-ws", b"ws data"))
        assert run(campus, pc.read_file("/vice/usr/alice/from-ws")) == b"ws data"
        assert "from-ws" in run(campus, pc.listdir("/vice/usr/alice"))

    def test_workstations_see_pc_writes(self, setup):
        campus, _surrogate, pc = setup
        run(campus, pc.write_file("/vice/usr/alice/pc-made", b"pc data"))
        session = alice_session(campus, 1)
        assert run(campus, session.read_file("/vice/usr/alice/pc-made")) == b"pc data"

    def test_stat_mkdir_remove_rename(self, setup):
        campus, _surrogate, pc = setup
        run(campus, pc.mkdir("/vice/usr/alice/pcdir"))
        run(campus, pc.write_file("/vice/usr/alice/pcdir/a", b"1"))
        status = run(campus, pc.stat("/vice/usr/alice/pcdir/a"))
        assert status["size"] == 1
        run(campus, pc.rename("/vice/usr/alice/pcdir/a", "/vice/usr/alice/pcdir/b"))
        assert run(campus, pc.listdir("/vice/usr/alice/pcdir")) == ["b"]
        run(campus, pc.remove("/vice/usr/alice/pcdir/b"))
        with pytest.raises(FileNotFound):
            run(campus, pc.read_file("/vice/usr/alice/pcdir/b"))

    def test_pc_benefits_from_surrogate_cache(self, setup):
        campus, surrogate, pc = setup
        run(campus, pc.write_file("/vice/usr/alice/hot", b"h" * 5000))
        server = campus.server(0)
        run(campus, pc.read_file("/vice/usr/alice/hot"))
        calls_before = server.node.calls_received.total
        run(campus, pc.read_file("/vice/usr/alice/hot"))
        # The surrogate's Venus served the re-read from its cache.
        assert server.node.calls_received.total == calls_before

    def test_unenrolled_pc_rejected(self, setup):
        campus, surrogate, _pc = setup
        rogue = PersonalComputer(surrogate, "rogue-pc")
        rogue.username = "alice"
        from repro.crypto import derive_user_key

        def go():
            rogue._connection = yield from rogue.node.connect(
                surrogate.host.name, "stranger", derive_user_key("stranger", "x")
            )

        with pytest.raises(Exception):
            run(campus, go())

    def test_call_before_attach_rejected(self, setup):
        campus, surrogate, _pc = setup
        fresh = PersonalComputer(surrogate, "fresh-pc")
        with pytest.raises(NotAuthenticated):
            run(campus, fresh.read_file("/vice/usr/alice/x"))


class TestSurrogateSecurityBoundary:
    def test_vice_acls_still_enforced_for_pc_users(self, setup):
        campus, surrogate, pc = setup
        campus.add_user("bob", "bob-pw")
        campus.create_user_volume("bob")
        # Lock bob's tree down.
        bob = campus.login(1, "bob", "bob-pw")
        acl = {"positive": {"bob": "rwidlak"}, "negative": {}}
        run(campus, bob.set_acl("/vice/usr/bob", acl))
        run(campus, bob.write_file("/vice/usr/bob/secret", b"s"))
        # The PC (as alice, via the surrogate) is refused by Vice itself.
        with pytest.raises(PermissionDenied):
            run(campus, pc.read_file("/vice/usr/bob/secret"))

    def test_campus_lan_traffic_stays_encrypted(self, setup):
        """The PC leg is cleartext, but the surrogate-to-Vice leg is not."""
        campus, surrogate, pc = setup
        secret = b"PC secrets crossing the campus backbone"
        cluster_frames = []
        original = campus.network.send

        def wiretap(datagram, kind="data", deliver=True):
            path = campus.network.route(datagram.source, datagram.destination)
            if any(seg.name == "cluster0" for seg in path):
                envelope = datagram.payload
                cluster_frames.append(
                    getattr(envelope, "body", b"") + getattr(envelope, "payload", b"")
                )
            return original(datagram, kind, deliver)

        campus.network.send = wiretap
        run(campus, pc.write_file("/vice/usr/alice/secret.doc", secret))
        campus.network.send = original
        assert cluster_frames, "expected surrogate-to-Vice traffic"
        for frame in cluster_frames:
            assert secret not in frame

    def test_pc_net_is_cleartext(self, setup):
        """Faithful wart: the cheap PC network runs in the clear."""
        campus, surrogate, pc = setup
        payload = b"visible on the cheap wire"
        pcnet_frames = []
        original = campus.network.send

        def wiretap(datagram, kind="data", deliver=True):
            path = campus.network.route(datagram.source, datagram.destination)
            if any(seg.name == "pcnet0" for seg in path):
                envelope = datagram.payload
                pcnet_frames.append(getattr(envelope, "payload", b""))
            return original(datagram, kind, deliver)

        campus.network.send = wiretap
        run(campus, pc.write_file("/vice/usr/alice/open.doc", payload))
        campus.network.send = original
        # Nothing to encrypt: the payload crosses unsealed, as the object sent.
        assert any(type(frame) is Charged and frame.plain == payload
                   for frame in pcnet_frames)
