"""Venus's record of silent servers, kernel-stepped on small campuses.

A server whose last call went unanswered is *silent*: every choice among
servers tries it last, a silent custodian that is a call's only site has
its hint refreshed first on a failover campus, and a background probe
clears the mark once the server answers again.  Only the order changes:
a silent server is still called when nothing else is left.
"""

import pytest

from repro import ITCSystem, SystemConfig
from repro.errors import ServerUnavailable
from repro.faults import Fault, FaultPlan
from repro.obs import TraceRecorder
from repro.venus.venus import SILENT_PROBE_INTERVAL, Venus
from repro.vice.erasure import ErasureConfig
from repro.workload import provision_campus, run_campus_day
from tests.helpers import alice_session, run, small_campus

HOME = "/vice/usr/alice"


def coded_campus():
    """Three servers, every volume striped 2 + 1 (no spare to rebuild on)."""
    return small_campus(clusters=3, workstations_per_cluster=2,
                        erasure=ErasureConfig(data=2, parity=1))


def custodian_of(campus, mount="/usr/alice"):
    entry, _rest = campus.replication_controller.location.resolve(mount)
    return entry


def datagrams_to(campus, destination):
    """A live list of every datagram the network carries to ``destination``
    (as ``(source, time)``)."""
    sent = []
    network = campus.network
    real = network.send

    def send(datagram, kind="data", deliver=True):
        if datagram.destination == destination:
            sent.append((datagram.source, campus.sim.now))
        return (yield from real(datagram, kind=kind, deliver=deliver))

    network.send = send
    return sent


class TestStripeMembers:
    def test_a_dead_member_costs_one_timeout_not_one_per_file(self):
        campus = coded_campus()
        alice = alice_session(campus)
        for name in ("f", "g"):
            run(campus, alice.write_file(f"{HOME}/{name}", name.encode() * 900))
        dead = custodian_of(campus).replicas[1]  # a data holder, not the custodian
        campus.server(dead).host.crash()
        reader = campus.login(1, "alice", "alice-pw")
        venus = campus.workstation(1).venus
        timeout = venus.node.costs.retransmit_timeout

        assert run(campus, reader.read_file(f"{HOME}/f")) == b"f" * 900
        assert dead in venus.silent

        sent = datagrams_to(campus, dead)
        start = campus.sim.now
        assert run(campus, reader.read_file(f"{HOME}/g")) == b"g" * 900
        assert campus.sim.now - start < timeout
        assert [src for src, _ in sent if src == venus.host.name] == []
        # Both reads decoded from parity: skipping a silent member is a
        # degraded read like timing out on it.  Neither is a failover.
        assert venus.degraded_reads == 2
        assert venus.failovers == 0

    def test_a_silent_only_site_is_still_called(self):
        # No fail-fast: with nothing else to ask, Venus asks the silent
        # server, and its answer clears the mark.
        campus = small_campus()
        alice = alice_session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"only here"))
        venus = campus.workstation(1).venus
        reader = campus.login(1, "alice", "alice-pw")
        server = campus.server(0).host
        server.crash()
        with pytest.raises(ServerUnavailable):
            run(campus, reader.read_file(f"{HOME}/f"))
        assert "server0" in venus.silent
        server.recover()
        sent = datagrams_to(campus, "server0")
        assert run(campus, reader.read_file(f"{HOME}/f")) == b"only here"
        assert sent
        assert "server0" not in venus.silent


class TestProbe:
    def test_the_probe_clears_the_mark_and_the_server_is_preferred_again(
            self, monkeypatch):
        campus = coded_campus()
        alice_session(campus)
        venus = campus.workstation(0).venus  # cluster 0: server0 is its own
        asked = []
        real_call = Venus._call

        def spy(self, username, server, procedure, args, **options):
            if self is venus and procedure == "GetCustodian" and args["path"] != "/":
                asked.append(server)
            return real_call(self, username, server, procedure, args, **options)

        monkeypatch.setattr(Venus, "_call", spy)

        def locate():
            return venus._get_custodian("alice", "/usr/alice")

        server = campus.server(0).host
        server.crash()
        run(campus, locate())
        assert asked == ["server0", "server1"]
        assert "server0" in venus.silent
        run(campus, locate())
        assert asked[2:] == ["server1"]  # the silent server goes last

        server.recover()
        campus.run(until=campus.sim.now + SILENT_PROBE_INTERVAL + 1.0)
        assert "server0" not in venus.silent
        run(campus, locate())
        assert asked[3:] == ["server0"]

    def test_one_probe_per_interval_while_silent(self):
        campus = small_campus()
        alice = alice_session(campus)
        run(campus, alice.write_file(f"{HOME}/f", b"x"))  # connected
        venus = campus.workstation(0).venus
        campus.server(0).host.crash()
        with pytest.raises(ServerUnavailable):
            run(campus, venus._get_custodian("alice", "/usr/alice"))
        marked_at = campus.sim.now
        sent = datagrams_to(campus, "server0")
        campus.run(until=marked_at + 3 * SILENT_PROBE_INTERVAL + 10.0)
        # One single-datagram probe per interval, and the mark stands.
        times = [marked_at] + [when for _src, when in sent]
        assert len(sent) == 3
        assert all(b - a >= SILENT_PROBE_INTERVAL for a, b in zip(times, times[1:]))
        assert "server0" in venus.silent

    def test_one_probe_per_interval_without_a_connection(self):
        """The same when the user never reached the server: each probe's
        handshake sends one HELLO, not a retransmission cycle."""
        campus = small_campus()
        alice_session(campus)
        venus = campus.workstation(0).venus
        campus.server(0).host.crash()
        with pytest.raises(ServerUnavailable):
            run(campus, venus._get_custodian("alice", "/usr/alice"))
        assert not venus._connections  # the handshake never completed
        marked_at = campus.sim.now
        sent = datagrams_to(campus, "server0")
        campus.run(until=marked_at + 3 * SILENT_PROBE_INTERVAL + 10.0)
        times = [marked_at] + [when for _src, when in sent]
        assert len(sent) == 3
        assert all(b - a >= SILENT_PROBE_INTERVAL for a, b in zip(times, times[1:]))
        assert "server0" in venus.silent

    def test_a_fault_free_day_builds_no_probe(self, monkeypatch):
        probes = []
        real = Venus._reprobe

        def spy(self, username, server):
            probes.append(server)
            return real(self, username, server)

        monkeypatch.setattr(Venus, "_reprobe", spy)
        campus = ITCSystem(SystemConfig(
            clusters=3, workstations_per_cluster=2,
            functional_payload_crypto=False,
            erasure=ErasureConfig(data=2, parity=1),
        ))
        users = provision_campus(campus, hot_files=4, cold_files=4,
                                 shared_files=4, binary_files=3)
        run_campus_day(campus, users, duration=300.0, warmup=30.0)
        assert probes == []
        assert all(not ws.venus.silent for ws in campus.workstations)


class TestFragmentTraces:
    def test_every_fragment_fetch_descends_from_its_open(self):
        warmup, duration = 30.0, 300.0
        campus = ITCSystem(SystemConfig(
            clusters=3, workstations_per_cluster=2,
            functional_payload_crypto=False,
            erasure=ErasureConfig(data=2, parity=1),
            fault_plan=FaultPlan(name="server_crash", faults=(
                Fault("server_crash", "server0", start=warmup + 60.0,
                      duration=warmup + duration),
            )),
        ))
        recorder = TraceRecorder(campus.sim)
        users = provision_campus(campus, hot_files=4, cold_files=4,
                                 shared_files=4, binary_files=3)
        run_campus_day(campus, users, duration=duration, warmup=warmup)
        by_id = {span.span_id: span for span in recorder.spans}
        workstations = {ws.name for ws in campus.workstations}

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span.name

        fetches = [s for s in recorder.spans
                   if s.name == "rpc.call:FetchFragment" and s.host in workstations]
        assert fetches
        orphans = [s for s in fetches if "venus.open" not in set(ancestors(s))]
        assert orphans == []
