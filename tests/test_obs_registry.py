"""Tests for the unified metrics registry (repro.obs.registry)."""

import gc
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from tests.helpers import alice_session, run, small_campus

from repro import ITCSystem, SystemConfig, hosts
from repro.crypto import derive_user_key
from repro.faults import PRESETS, scheduler as fault_scheduler
from repro.hosts import Host
from repro.net import Network, topology
from repro.obs import MetricsRegistry, availability
from repro.rpc import RpcNode, node as rpc_node
from repro.sim import kernel
from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter, Samples, UtilizationTracker
from repro.venus import venus as venus_module
from repro.vice import erasure, replication, server as vice_server
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import ReplicationConfig
from repro.workload import provision_campus, run_campus_day


# ======================================================================
# instrument kinds
# ======================================================================


def test_counter_from_counter_object():
    registry = MetricsRegistry()
    counter = Counter("calls")
    registry.attach("rpc.s", counter, {"calls": ("counter", lambda owner: owner)})
    counter.add("Fetch")
    counter.add("Fetch")
    counter.add("Store")
    reading = registry.value("rpc.s.calls")
    assert reading == {
        "type": "counter", "total": 3, "counts": {"Fetch": 2, "Store": 1},
    }


def test_counter_from_int_closure():
    registry = MetricsRegistry()
    state = {"n": 0}
    registry.attach("venus.ws", state,
                    {"opens": ("counter", lambda state: state["n"])})
    state["n"] = 7
    assert registry.value("venus.ws.opens") == {"type": "counter", "total": 7}


def test_gauge_reads_live_value():
    registry = MetricsRegistry()
    box = {"v": 1.5}
    registry.attach("venus.ws", box,
                    {"hit_ratio": ("gauge", lambda box: box["v"])})
    assert registry.value("venus.ws.hit_ratio")["value"] == 1.5
    box["v"] = 0.25
    assert registry.value("venus.ws.hit_ratio")["value"] == 0.25


def test_histogram_reads_its_live_bag():
    registry = MetricsRegistry()
    bag = Samples("rpc.ws.latency.Fetch")
    registry.attach("rpc.ws", bag,
                    {"latency.Fetch": ("histogram", lambda bag: bag)})
    assert registry.get("rpc.ws.latency.Fetch").provider() is bag
    bag.add(0.010)
    bag.add(0.030)
    reading = registry.value("rpc.ws.latency.Fetch")
    assert reading["type"] == "histogram"
    assert reading["count"] == 2
    assert reading["min"] == 0.010
    assert reading["max"] == 0.030
    assert reading["p50"] <= reading["p90"] <= reading["p99"]


def test_utilization_instrument():
    sim = Simulator()
    registry = MetricsRegistry()
    tracker = UtilizationTracker(sim, capacity=1)
    registry.attach("host.h", tracker,
                    {"cpu": ("utilization", lambda tracker: tracker)})
    reading = registry.value("host.h.cpu")
    assert reading["type"] == "utilization"
    assert set(reading) == {"type", "mean", "peak"}


def test_unknown_kind_rejected():
    registry = MetricsRegistry()
    registry.attach("bad", {}, {"": ("thermometer", lambda owner: 0)})
    with pytest.raises(ValueError):
        registry.value("bad")


# ======================================================================
# namespace operations
# ======================================================================

_OPENS = {"opens": ("gauge", lambda value: value)}


def test_names_prefix_filter_and_contains():
    registry = MetricsRegistry()
    registry.attach("venus.ws0", 1, _OPENS)
    registry.attach("venus.ws1", 2, _OPENS)
    registry.attach("vice.s0", 3, {"volumes": ("gauge", lambda value: value)})
    assert registry.names("venus.") == ["venus.ws0.opens", "venus.ws1.opens"]
    assert "vice.s0.volumes" in registry
    assert "vice.s0.files" not in registry
    assert len(registry) == 3


def test_reregistration_replaces():
    registry = MetricsRegistry()
    registry.attach("x", 1, {"": ("gauge", lambda value: value)})
    registry.attach("x", 2, {"": ("gauge", lambda value: value)})
    assert len(registry) == 1
    assert registry.value("x")["value"] == 2


def test_missing_instrument_raises():
    registry = MetricsRegistry()
    with pytest.raises(KeyError):
        registry.value("nope")
    assert registry.get("nope") is None


# ======================================================================
# snapshots: the campus-wide read surface
# ======================================================================


def test_snapshot_round_trips_through_json():
    campus = small_campus()
    session = alice_session(campus)
    run(campus, session.write_file("/vice/usr/alice/f", b"d" * 2000))
    run(campus, session.read_file("/vice/usr/alice/f"))
    snapshot = campus.metrics.snapshot()
    decoded = json.loads(json.dumps(snapshot, sort_keys=True))
    assert decoded == snapshot
    # Every component layer registered itself.
    prefixes = {name.split(".", 1)[0] for name in snapshot}
    assert {"venus", "vice", "rpc", "host"} <= prefixes


def test_snapshot_matches_raw_attributes():
    campus = small_campus()
    session = alice_session(campus)
    run(campus, session.write_file("/vice/usr/alice/g", b"d" * 500))
    run(campus, session.read_file("/vice/usr/alice/g"))
    venus = campus.workstation(0).venus
    name = campus.workstation(0).name
    snap = campus.metrics.snapshot(f"venus.{name}.")
    assert snap[f"venus.{name}.opens"]["total"] == venus.opens
    assert snap[f"venus.{name}.cache.hits"]["total"] == venus.cache.hits
    assert snap[f"venus.{name}.cache.used_bytes"]["value"] == venus.cache.used_bytes
    server = campus.servers[0]
    sname = server.host.name
    reading = campus.metrics.value(f"vice.{sname}.call_mix")
    assert reading["counts"] == server.call_mix.as_dict()
    assert (campus.metrics.value(f"rpc.{sname}.calls_received")["total"]
            == server.node.calls_received.total)


def test_latency_histograms_populate_per_procedure():
    campus = small_campus(workstations_per_cluster=2)
    writer = alice_session(campus, ws=0)
    reader = alice_session(campus, ws=1)
    run(campus, writer.write_file("/vice/usr/alice/h", b"d" * 4000))
    run(campus, reader.read_file("/vice/usr/alice/h"))
    bags = campus.metrics.histograms("rpc.")
    procs = {name.rsplit(".", 1)[1] for name in bags}
    assert "FetchByFid" in procs
    assert "CreateByFid" in procs
    for bag in bags.values():
        assert isinstance(bag, Samples)
        assert len(bag) >= 1
        assert bag.mean > 0


# ======================================================================
# snapshot hardening: a raising provider cannot poison the snapshot
# ======================================================================


def _torn_down(owner):
    raise AttributeError("host torn down")


def test_snapshot_survives_raising_provider():
    registry = MetricsRegistry()
    state = {}
    registry.attach("good", state, {"value": ("gauge", lambda state: 42)})
    registry.attach("dead", state,
                    {"closure": ("counter", lambda state: state["gone"])})  # KeyError
    registry.attach("torn", state, {"down": ("gauge", _torn_down)})

    snapshot = registry.snapshot()
    assert snapshot["good.value"] == {"type": "gauge", "value": 42}
    assert snapshot["dead.closure"] == {"type": "counter", "unavailable": True}
    assert snapshot["torn.down"] == {"type": "gauge", "unavailable": True}
    # The marker round-trips through JSON like any healthy reading.
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_value_still_raises_for_direct_reads():
    # snapshot() degrades gracefully; a *direct* read of one instrument
    # keeps the loud failure so unit tests and debuggers see the cause.
    registry = MetricsRegistry()
    state = {}
    registry.attach("dead", state,
                    {"closure": ("counter", lambda state: state["gone"])})
    with pytest.raises(KeyError):
        registry.value("dead.closure")
    assert registry.get("dead.closure").read_safe() == {
        "type": "counter", "unavailable": True,
    }


def test_provider_recovers_after_repair():
    registry = MetricsRegistry()
    state = {}
    registry.attach("flappy", state, {"": ("counter", lambda state: state["n"])})
    assert registry.snapshot()["flappy"]["unavailable"] is True
    state["n"] = 3
    assert registry.snapshot()["flappy"] == {"type": "counter", "total": 3}


# ======================================================================
# providers are closures: they survive counter resets
# ======================================================================


def test_instruments_survive_reset_counters():
    campus = small_campus()
    session = alice_session(campus)
    run(campus, session.write_file("/vice/usr/alice/r", b"d" * 100))
    run(campus, session.read_file("/vice/usr/alice/r"))
    name = campus.workstation(0).name
    sname = campus.servers[0].host.name
    assert campus.metrics.value(f"venus.{name}.fetches")["total"] >= 0
    assert campus.metrics.value(f"rpc.{sname}.calls_received")["total"] > 0

    # reset_counters REPLACES the Counter objects and zeroes the raw ints;
    # the registry must read the fresh state, not a stale captured object.
    campus.reset_counters()
    assert campus.metrics.value(f"rpc.{sname}.calls_received")["total"] == 0
    assert campus.metrics.value(f"venus.{name}.cache.hits")["total"] == 0
    assert campus.metrics.value(f"vice.{sname}.call_mix")["total"] == 0

    run(campus, session.read_file("/vice/usr/alice/r"))
    assert campus.metrics.value(f"rpc.{sname}.calls_received")["total"] >= 0
    assert campus.metrics.value(f"venus.{name}.opens")["total"] > 0


# ======================================================================
# instrument tables: one attach per component instance
# ======================================================================


class _Part:
    def __init__(self):
        self.hits = 0
        self.bags = {}


_PART = {
    "hits": ("counter", lambda part: part.hits),
    "hot.hits": ("gauge", lambda part: part.hits * 2),
    "latency.": ("histogram", lambda part: part.bags),
}


def test_attach_publishes_every_row_under_the_prefix():
    registry = MetricsRegistry()
    part = _Part()
    registry.attach("part.p0", part, _PART)
    part.hits = 3
    assert registry.names() == ["part.p0.hits", "part.p0.hot.hits"]
    assert registry.value("part.p0.hits") == {"type": "counter", "total": 3}
    assert registry.value("part.p0.hot.hits") == {"type": "gauge", "value": 6}
    part.bags["Fetch"] = Samples()
    part.bags["Fetch"].add(0.5)
    assert registry.names("part.p0.latency.") == ["part.p0.latency.Fetch"]
    assert registry.histograms() == {"part.p0.latency.Fetch": part.bags["Fetch"]}
    assert registry.get("part.p0.latency.Fetch").provider() is part.bags["Fetch"]
    assert registry.get("part.p0.latency.Store") is None
    assert registry.get("part.p0.latency.") is None


def test_empty_suffix_names_the_prefix():
    registry = MetricsRegistry()
    registry.attach("agent.s0", _Part(), {"": ("counter", lambda part: {"a": 1})})
    assert registry.names() == ["agent.s0"]
    assert registry.value("agent.s0") == {"type": "counter", "total": 1,
                                          "counts": {"a": 1}}


def test_second_attach_under_a_prefix_replaces_the_first():
    registry = MetricsRegistry()
    first, second = _Part(), _Part()
    first.hits, second.hits = 1, 2
    registry.attach("part.p0", first, _PART)
    registry.attach("part.p0", second, _PART)
    assert len(registry) == 2
    assert registry.value("part.p0.hits")["total"] == 2
    # Also across tables: the prefix has one owner.
    registry.attach("part.p0", first, {"other": ("gauge", lambda part: 9)})
    assert registry.names() == ["part.p0.other"]


def test_attach_prefix_is_component_dot_instance():
    registry = MetricsRegistry()
    for prefix in ("", ".p0", "part.", "part.p0.x"):
        with pytest.raises(ValueError):
            registry.attach(prefix, _Part(), _PART)


def test_bare_component_beside_an_instance_member():
    """A bare ``"part"`` owns ``part`` and ``part.total`` beside the
    instance member ``part.p1``; every read agrees on which names exist."""
    registry = MetricsRegistry()
    whole, p1 = _Part(), _Part()
    whole.hits, p1.hits = 5, 1
    registry.attach("part", whole, {"": ("counter", lambda part: part.hits),
                                    "total": ("gauge", lambda part: part.hits)})
    registry.attach("part.p1", p1, _PART)
    names = ["part", "part.p1.hits", "part.p1.hot.hits", "part.total"]
    assert registry.names() == registry.names("part") == names
    assert len(registry) == 4
    for name in names:
        assert name in registry and registry.get(name).name == name
    assert registry.value("part") == {"type": "counter", "total": 5}
    assert registry.value("part.total") == {"type": "gauge", "value": 5}
    assert registry.value("part.p1.hits") == {"type": "counter", "total": 1}
    for name in ("part.", "part.p1", "part.p1.", "part.hits", "part.p2.hits",
                 "part.total.x", "part.total."):
        assert name not in registry
    assert registry.names("part.p1") == ["part.p1.hits", "part.p1.hot.hits"]
    assert registry.names("part.t") == ["part.total"]


# ======================================================================
# the read contract, on a whole campus
# ======================================================================


def _coded_crash_day():
    """A revised 5-cluster x 2-workstation campus of 2+1 stripes through
    a server-crash day: every table is attached."""
    campus = ITCSystem(SystemConfig(
        mode="revised", clusters=5, workstations_per_cluster=2,
        functional_payload_crypto=False,
        erasure=ErasureConfig(data=2, parity=1),
        fault_plan=PRESETS["server-crash"](seed=0)))
    users = provision_campus(campus, hot_files=8, cold_files=8,
                             shared_files=8, binary_files=6)
    run_campus_day(campus, users, duration=900.0, warmup=60.0)
    return campus


@pytest.fixture(scope="module")
def coded_campus():
    return _coded_crash_day()


def test_len_counts_every_name(coded_campus):
    metrics = coded_campus.metrics
    names = metrics.names()
    assert len(metrics) == len(names) == len(set(names))
    assert names == sorted(names)


def test_contains_exactly_when_get_finds(coded_campus):
    metrics = coded_campus.metrics
    for name in metrics.names():
        assert name in metrics
        instrument = metrics.get(name)
        assert instrument is not None and instrument.name == name
    for name in ("", "venus", "venus.ws0-0", "venus.ws0-0.", "venus.ws0-0.nope",
                 "venus.nobody.opens", "rpc.server0.latency.",
                 "rpc.server0.latency.NoSuchCall", "nope.x.opens", "sim.kernel"):
        assert name not in metrics
        assert metrics.get(name) is None
        with pytest.raises(KeyError):
            metrics.value(name)


def test_snapshot_pinned(coded_campus):
    """Every reading of the day, byte for byte.  Recorded on the
    one-closure-per-instrument registry this one replaced; a change meant
    to move a reading re-records it and says why.  Re-recorded when Venus
    began remembering silent servers: the day's reads skip the dead
    server0, so call, retransmit, latency and degraded-read readings move
    (the probes of it add GetCustodian calls); the name count does not."""
    snapshot = coded_campus.metrics.snapshot()
    digest = hashlib.sha256(json.dumps(snapshot, sort_keys=True, default=str)
                            .encode()).hexdigest()
    assert len(snapshot) == 554
    assert digest == ("ff5e855cd478d95d06571e0ae16ed3af4ab35b2e89a6fbab3792f4dc8"
                      "dccaaaf")


def test_first_call_of_a_procedure_grows_len_by_one():
    """The rolling aggregator refreshes its buckets when ``len`` moves."""
    sim = Simulator()
    network = Network(sim)
    network.add_segment("lan")
    key = derive_user_key("alice", "pw")
    client = RpcNode(Host(sim, network, "client", "lan"))
    server_host = Host(sim, network, "server", "lan")
    server = RpcNode(server_host, auth_key_lookup=lambda user: key)

    def echo(conn, args, payload):
        yield from server_host.compute(0.001)
        return {}, b""

    server.register("Echo", echo)
    server.register("Ping", echo)
    conn = sim.run_until_complete(sim.process(client.connect("server", "alice", key)))
    sizes = [len(sim.metrics)]
    for procedure in ("Echo", "Echo", "Ping"):
        sim.run_until_complete(sim.process(client.call(conn, procedure, {})))
        sizes.append(len(sim.metrics))
    assert [after - before for before, after in zip(sizes, sizes[1:])] == [1, 0, 1]
    assert sim.metrics.names("rpc.client.latency.") == [
        "rpc.client.latency.Echo", "rpc.client.latency.Ping"]


def test_registry_heap_is_per_member_not_per_instrument():
    """What the registry alone keeps alive on a revised 20 x 5 campus
    after a short day: one entry per component instance (~21 KiB), not a
    name, closure and Instrument per instrument (1,220 KiB before)."""
    tracemalloc.start()
    try:
        campus = ITCSystem(SystemConfig(mode="revised", clusters=20,
                                        workstations_per_cluster=5))
        users = provision_campus(campus, hot_files=1, cold_files=1,
                                 shared_files=1, binary_files=1)
        run_campus_day(campus, users, duration=60.0, warmup=10.0)
        assert len(campus.metrics) > 3_500
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        campus.metrics._groups.clear()  # every member the registry holds
        gc.collect()
        owned = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(campus.metrics) == 0
    assert owned <= 128 * 1024


# ======================================================================
# the catalogue in docs/observability.md names every instrument
# ======================================================================

_DOC = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

# Every component table, under one example prefix.
_TABLES = [
    ("venus.ws0-0", venus_module.INSTRUMENTS),
    ("erasure.ws0-0", venus_module.STRIPED_INSTRUMENTS),
    ("rpc.server0", rpc_node.INSTRUMENTS),
    ("vice.server0", vice_server.INSTRUMENTS),
    ("host.server0", hosts.INSTRUMENTS),
    ("erasure.server0", erasure.INSTRUMENTS),
    ("replication.server0", replication.INSTRUMENTS),
    ("replication.controller", replication.CONTROLLER_INSTRUMENTS),
    ("erasure.controller", erasure.CONTROLLER_INSTRUMENTS),
    ("sim.kernel", kernel.INSTRUMENTS),
    ("net.route_cache", topology.INSTRUMENTS),
    ("faults", fault_scheduler.INSTRUMENTS),
    ("availability", availability.INSTRUMENTS),
]


def _pattern(text):
    """A catalogue cell as a regex: ``<ws>``-style placeholders stand for
    one name segment."""
    return re.sub(r"<[^>]+>", "[^.]+", re.escape(text))


def _catalogue():
    """``[(prefix regex, [metric regex, ...])]`` from the name-scheme table."""
    table = _DOC.read_text().split("### Name scheme", 1)[1].split("```", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) != 2 or "`" not in cells[0]:
            continue
        metrics = [_pattern(m) for m in re.findall(r"`([^`]+)`", cells[1])]
        for prefix in re.findall(r"`([^`]+)`", cells[0]):
            rows.append((_pattern(prefix), metrics))
    return rows


def _documented(name, catalogue):
    for prefix, metrics in catalogue:
        if re.fullmatch(prefix, name):  # a row naming the instrument itself
            return True
        if any(re.fullmatch(prefix + metric, name) for metric in metrics):
            return True
    return False


def test_catalogue_has_a_row_for_every_table_suffix():
    catalogue = _catalogue()
    missing = [f"{prefix}.{suffix}" for prefix, table in _TABLES
               for suffix in table
               if not _documented(f"{prefix}.{suffix}FetchByFid"
                                  if suffix.endswith(".") else
                                  f"{prefix}.{suffix}" if suffix else prefix,
                                  catalogue)]
    assert missing == []


def test_catalogue_has_a_row_for_every_registered_name(coded_campus):
    """Campus-wide owners included: the coded crash day registers
    sim.kernel.*, net.route_cache, faults.*, availability.* and
    erasure.controller; a copied campus adds replication.controller."""
    copied = ITCSystem(SystemConfig(mode="revised", clusters=3,
                                    workstations_per_cluster=1,
                                    replication=ReplicationConfig(factor=2)))
    catalogue = _catalogue()
    names = coded_campus.metrics.names() + copied.metrics.names()
    assert "replication.controller" in names and "erasure.controller" in names
    assert [name for name in names if not _documented(name, catalogue)] == []
