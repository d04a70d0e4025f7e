"""The full configuration matrix: every mode × validation × policy combo.

The paper describes one prototype and one redesign, but the mechanisms are
orthogonal; these tests pin that every combination actually works end to
end, so ablation benches can vary one axis at a time with confidence.
"""

import itertools

import pytest

from repro import ITCSystem, SystemConfig
from repro.errors import InvalidArgument
from repro.faults.plan import server_crash_plan
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import ReplicationConfig
from repro.workload import provision_campus, run_campus_day
from tests.helpers import run

HOME = "/vice/usr/alice"

MATRIX = [
    ("prototype", "check-on-open"),
    ("prototype", "callback"),
    ("revised", "check-on-open"),
    ("revised", "callback"),
]


def build(mode, validation, **overrides):
    campus = ITCSystem(
        SystemConfig(mode=mode, validation=validation, clusters=1,
                     workstations_per_cluster=2, **overrides)
    )
    campus.add_user("alice", "alice-pw")
    campus.create_user_volume("alice")
    return campus


@pytest.mark.parametrize("mode,validation", MATRIX)
class TestEveryCombination:
    def test_write_read_share_cycle(self, mode, validation):
        campus = build(mode, validation)
        a = campus.login(0, "alice", "alice-pw")
        b = campus.login(1, "alice", "alice-pw")
        run(campus, a.write_file(f"{HOME}/f", b"v1"))
        assert run(campus, b.read_file(f"{HOME}/f")) == b"v1"
        run(campus, b.write_file(f"{HOME}/f", b"v2"))
        assert run(campus, a.read_file(f"{HOME}/f")) == b"v2"

    def test_directory_lifecycle(self, mode, validation):
        campus = build(mode, validation)
        session = campus.login(0, "alice", "alice-pw")
        run(campus, session.mkdir(f"{HOME}/d"))
        run(campus, session.write_file(f"{HOME}/d/f", b"x"))
        assert run(campus, session.listdir(f"{HOME}/d")) == ["f"]
        run(campus, session.unlink(f"{HOME}/d/f"))
        run(campus, session.rmdir(f"{HOME}/d"))
        assert "d" not in run(campus, session.listdir(HOME))

    def test_rereads_are_cache_hits(self, mode, validation):
        campus = build(mode, validation)
        session = campus.login(0, "alice", "alice-pw")
        run(campus, session.write_file(f"{HOME}/f", b"data"))
        run(campus, session.read_file(f"{HOME}/f"))
        fetches_before = campus.server(0).call_mix.count("fetch")
        for _ in range(3):
            run(campus, session.read_file(f"{HOME}/f"))
        assert campus.server(0).call_mix.count("fetch") == fetches_before

    def test_validation_traffic_matches_policy(self, mode, validation):
        campus = build(mode, validation)
        session = campus.login(0, "alice", "alice-pw")
        run(campus, session.write_file(f"{HOME}/f", b"data"))
        run(campus, session.read_file(f"{HOME}/f"))
        server = campus.server(0)
        before = server.call_mix.count("validate")
        for _ in range(4):
            run(campus, session.read_file(f"{HOME}/f"))
        validations = server.call_mix.count("validate") - before
        if validation == "check-on-open":
            assert validations >= 4  # every open checks
        else:
            assert validations == 0  # callbacks carry the trust

    def test_stale_cache_detected_after_remote_write(self, mode, validation):
        campus = build(mode, validation)
        a = campus.login(0, "alice", "alice-pw")
        b = campus.login(1, "alice", "alice-pw")
        run(campus, a.write_file(f"{HOME}/f", b"old"))
        run(campus, b.read_file(f"{HOME}/f"))
        run(campus, a.write_file(f"{HOME}/f", b"new"))
        assert run(campus, b.read_file(f"{HOME}/f")) == b"new"


@pytest.mark.parametrize("mode", ["prototype", "revised"])
@pytest.mark.parametrize("write_policy", ["on-close", "deferred"])
def test_write_policy_orthogonal_to_mode(mode, write_policy):
    campus = build(mode, None, write_policy=write_policy, flush_delay=5.0)
    session = campus.login(0, "alice", "alice-pw")
    run(campus, session.write_file(f"{HOME}/f", b"payload"))
    campus.run(until=campus.sim.now + 20.0)  # let any deferred flush land
    assert campus.volume("u-alice").read("/f") == b"payload"


@pytest.mark.parametrize("cache_policy", ["count", "space"])
def test_cache_policy_orthogonal(cache_policy):
    campus = build("revised", None, cache_max_files=5, cache_max_bytes=5000)
    ws = campus.workstation(0)
    ws.venus.cache.policy = cache_policy
    session = campus.login(0, "alice", "alice-pw")
    for index in range(8):
        run(campus, session.write_file(f"{HOME}/f{index}", b"z" * 500))
        run(campus, session.read_file(f"{HOME}/f{index}"))
    if cache_policy == "count":
        assert len(ws.venus.cache) <= 5
    else:
        assert ws.venus.cache.used_bytes <= 5000


# ----------------------------------------------------------------------
# optional subsystems, pairwise
# ----------------------------------------------------------------------

# Every optional subsystem as the SystemConfig fields that turn it on.  A
# 3 x 2 campus fits both redundancy schemes (factor 2, and a 2+1 stripe on
# its three servers); the crash outlasts the failure detector.
OPTIONS = {
    "replication": dict(replication=ReplicationConfig(factor=2)),
    "erasure": dict(erasure=ErasureConfig(data=2, parity=1)),
    "fault_plan": dict(fault_plan=server_crash_plan(at=150.0, outage=60.0)),
    "deferred-writes": dict(write_policy="deferred"),
    "prototype": dict(mode="prototype"),
    "check-on-open": dict(validation="check-on-open"),
    "no-payload-crypto": dict(functional_payload_crypto=False),
    "no-fast-path": dict(payload_fast_path=False),
    "software-encryption": dict(encryption="software"),
}

# The pairs SystemConfig.validate() refuses (keyed in OPTIONS order), and
# the words it uses.  The other 33 must run; a new rule adds a line here,
# on purpose.
REJECTED = {
    ("replication", "erasure"): "exclusive",
    ("replication", "prototype"): "replication requires the revised",
    ("erasure", "prototype"): "erasure coding requires the revised",
}


@pytest.mark.parametrize("first,second", list(itertools.combinations(OPTIONS, 2)))
def test_optional_subsystems_pairwise(first, second):
    config = SystemConfig(clusters=3, workstations_per_cluster=2,
                          **OPTIONS[first], **OPTIONS[second])
    if (first, second) in REJECTED:
        with pytest.raises(InvalidArgument, match=REJECTED[first, second]):
            ITCSystem(config)
        return
    campus = ITCSystem(config)
    users = provision_campus(campus, hot_files=4, cold_files=4,
                             shared_files=4, binary_files=3)
    summary = run_campus_day(campus, users, duration=340.0, warmup=60.0)
    assert summary["actions"] > 0
