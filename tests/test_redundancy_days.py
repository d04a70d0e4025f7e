"""Pinned redundant days: whole copies and coded stripes under faults.

Both redundancy schemes run on one control plane
(:mod:`repro.vice.replication`), so a change to the controller or the
per-server agent can move either.  These four days, on the campus of the
redundancy rows of ``benchmarks/bench_days.py --smoke``, pin what such a
change must not move: the final virtual time, the kernel's event count,
every controller counter, what Venus and the agents saw, and the
location-database version (one bump per membership change).
"""

import pytest

from repro.faults import PRESETS
from repro.vice.erasure import ErasureConfig
from repro.vice.replication import ReplicationConfig
from repro.workload.scenario import SCENARIOS

WARMUP, DURATION = 60.0, 600.0


def redundant_day(scheme, fault):
    """One 3 x 2 campus day, the catalogue's ``coded-crash`` with its
    shape, redundancy and plan replaced; ``scheme`` is a copy count or a
    (k, m) pair, ``fault`` a fault kind with a preset."""
    coded = isinstance(scheme, tuple)
    campus, _summary = SCENARIOS["coded-crash"]().with_(
        clusters=3, workstations_per_cluster=2, warmup=WARMUP, duration=DURATION,
        replication=None if coded else ReplicationConfig(factor=scheme),
        erasure=ErasureConfig(*scheme) if coded else None,
        fault_plan=PRESETS[fault.replace("_", "-")](
            at=WARMUP + 0.3 * DURATION, outage=0.15 * DURATION),
        crash_at=None).day()
    controller = campus.replication_controller
    return {
        "now": repr(campus.sim.now),
        "events": campus.metrics.value("sim.kernel.events")["total"],
        "controller": {
            "heartbeats": controller.heartbeats,
            "deaths_declared": controller.deaths_declared,
            "failovers": controller.failovers,
            "promotions": controller.promotions,
            "rereplications": controller.rereplications,
            "rejoins": controller.rejoins,
            "rebuilds": controller.rebuilds,
            "rebuild_failures": controller.rebuild_failures,
        },
        "venus_failovers": sum(ws.venus.failovers for ws in campus.workstations),
        "degraded_reads": sum(ws.venus.degraded_reads for ws in campus.workstations),
        "rebuild_bytes": sum(s.replication.rebuild_bytes for s in campus.servers),
        "location_version": controller.location.version,
    }


# Recorded on the commit before the erasure controller and agent were
# folded into the replication classes (82bf871), from ``redundant_day``.
# A change *meant* to move a redundant day's virtual numbers re-records
# the literal it moves and says why.  The two server-crash days moved when
# Venus began remembering silent servers: calls re-aimed from memory count
# as failovers, reads that skip the silent member as degraded, the probes
# of server0 add kernel events, and the 2+1 day fits one more action
# (108, none failed), which ends 20.6 s later.
_PINNED = {
    (2, "server_crash"): {
        "now": "772.1705096407223", "events": 20758,
        "controller": {"heartbeats": 447, "deaths_declared": 1, "failovers": 1,
                       "promotions": 5, "rereplications": 7, "rejoins": 1,
                       "rebuilds": 0, "rebuild_failures": 0},
        "venus_failovers": 1, "degraded_reads": 0,
        "rebuild_bytes": 0, "location_version": 26,
    },
    (3, "partition"): {
        "now": "772.1705378407224", "events": 20786,
        "controller": {"heartbeats": 447, "deaths_declared": 1, "failovers": 1,
                       "promotions": 5, "rereplications": 9, "rejoins": 1,
                       "rebuilds": 0, "rebuild_failures": 0},
        "venus_failovers": 0, "degraded_reads": 0,
        "rebuild_bytes": 0, "location_version": 32,
    },
    ((2, 1), "server_crash"): {
        "now": "784.8069308087979", "events": 21256,
        "controller": {"heartbeats": 453, "deaths_declared": 1, "failovers": 1,
                       "promotions": 5, "rereplications": 0, "rejoins": 1,
                       "rebuilds": 9, "rebuild_failures": 0},
        "venus_failovers": 9, "degraded_reads": 7,
        "rebuild_bytes": 2229996, "location_version": 14,
    },
    ((2, 1), "partition"): {
        "now": "772.2111968907219", "events": 19704,
        "controller": {"heartbeats": 447, "deaths_declared": 1, "failovers": 1,
                       "promotions": 5, "rereplications": 0, "rejoins": 1,
                       "rebuilds": 9, "rebuild_failures": 0},
        "venus_failovers": 0, "degraded_reads": 4,
        "rebuild_bytes": 2229996, "location_version": 14,
    },
}


@pytest.mark.parametrize("scheme,fault", list(_PINNED))
def test_redundant_day_is_pinned(scheme, fault):
    assert redundant_day(scheme, fault) == _PINNED[scheme, fault]
