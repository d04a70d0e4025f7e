"""Soak test: a multi-user day, then end-to-end consistency auditing.

After a synthetic day of concurrent activity, every workstation's cached
view must be reconcilable with the servers' authoritative state — the
whole point of the caching design.
"""

import pytest

from repro import ITCSystem, SystemConfig
from repro.workload import UserProfile, provision_campus, run_campus_day
from tests.helpers import run


def soak(mode, seed=3):
    campus = ITCSystem(
        SystemConfig(mode=mode, clusters=2, workstations_per_cluster=3,
                     functional_payload_crypto=False, seed=seed)
    )
    users = provision_campus(
        campus, hot_files=8, cold_files=8, shared_files=10, binary_files=6, seed=seed
    )
    fast = UserProfile(mean_think_seconds=4.0, p_edit=0.15, p_create=0.05)
    for user in users:
        user.profile = fast
    summary = run_campus_day(campus, users, duration=600.0, warmup=120.0)
    return campus, users, summary


@pytest.mark.parametrize("mode", ["prototype", "revised"])
def test_soak_day_runs_clean(mode):
    campus, users, summary = soak(mode)
    assert summary["failures"] == 0
    assert summary["actions"] > 100


# The soak day at seed 3, recorded before the RPC reply wait, the process
# sleep and the cipher's keystream were rewritten.  Host-side rewrites must
# reproduce every virtual number bit for bit; only the kernel's own event
# count may move.  A change *meant* to move virtual time re-records these
# from ``soak(mode)``: ``(campus.sim.now, summary)``.
_PINNED_DAY = {
    "prototype": (753.2384284286273, {
        "duration": 633.2384284286273, "actions": 546, "failures": 0,
        "call_mix": {"fetch": 0.058333333333333334, "other": 0.013095238095238096,
                     "status": 0.21428571428571427, "store": 0.12142857142857143,
                     "validate": 0.5928571428571429},
        "hit_ratio": 0.9104204753199269, "busiest_server": "server0",
        "busiest_cpu": 0.5537114297454804, "busiest_cpu_peak": 0.9696967380014939,
        "busiest_disk": 0.17985254803433187, "cross_cluster_bytes": 1380258}),
    "revised": (746.3314311088814, {
        "duration": 626.3314311088814, "actions": 795, "failures": 0,
        "call_mix": {"fetch": 0.23839009287925697, "other": 0.05263157894736842,
                     "status": 0.24458204334365324, "store": 0.46439628482972134},
        "hit_ratio": 0.9305210918114144, "busiest_server": "server0",
        "busiest_cpu": 0.0029542839191803692, "busiest_cpu_peak": 0.018535737499999528,
        "busiest_disk": 0.011656533006931959, "cross_cluster_bytes": 1422755}),
}


@pytest.mark.parametrize("mode", ["prototype", "revised"])
def test_soak_day_virtual_outputs_pinned(mode):
    campus, _users, summary = soak(mode)
    assert (campus.sim.now, summary) == _PINNED_DAY[mode]


@pytest.mark.parametrize("mode", ["prototype", "revised"])
def test_cached_data_reconciles_with_servers(mode):
    """Every fresh read at the end equals the server's authoritative copy."""
    campus, users, _summary = soak(mode)
    for user in users:
        session = user.session
        username = session.username
        for path in user.hot_files[:4]:
            vice_path = path[len("/vice"):]
            entry, rest = campus.servers[0].location.resolve(vice_path)
            server = campus.server(entry.custodian)
            authoritative = server.volumes[entry.volume_id].read(rest)
            observed = run(campus, session.read_file(path))
            assert observed == authoritative, f"{username} sees stale {path}"


def test_callback_state_is_bounded_by_cached_files():
    """Server callback state cannot exceed what workstations actually cache."""
    campus, users, _summary = soak("revised")
    total_promises = sum(server.callbacks.state_size for server in campus.servers)
    total_cached = sum(
        len(ws.venus.cache) + len(ws.venus.dir_cache) for ws in campus.workstations
    )
    assert total_promises <= total_cached * 2  # generous: promises ≤ holdings


def test_shared_files_converge_across_workstations():
    campus, users, _summary = soak("revised")
    shared = users[0].shared_files[0]
    views = {
        bytes(run(campus, user.session.read_file(shared))) for user in users[:4]
    }
    assert len(views) == 1  # everyone agrees after the dust settles


def test_locality_of_traffic():
    """Most traffic should stay inside clusters (the clustering principle)."""
    campus, users, _summary = soak("revised")
    backbone = campus.network.total_bytes_on("backbone")
    cluster_total = campus.network.total_bytes_on("cluster0") + campus.network.total_bytes_on(
        "cluster1"
    )
    assert backbone < cluster_total  # shared volumes pull some cross traffic
