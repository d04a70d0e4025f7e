"""EXP-8 — server-side vs client-side pathname traversal (§3.5.2, §5.3).

Paper: "In the prototype, Venus presents entire pathnames to Vice...  The
offloading of pathname traversal from servers to clients will reduce the
utilization of the server CPU and hence improve the scalability of our
design."

We stat files at increasing path depth, cold, under both implementations,
and report the server CPU consumed per call.  The prototype's cost climbs
with depth; the revised server's does not (Venus pays instead, once, and
caches the directories).
"""

from repro import ITCSystem, SystemConfig
from repro.analysis import Table

from _common import one_round, save_table

DEPTHS = [2, 4, 8, 12]


def build(mode):
    campus = ITCSystem(
        SystemConfig(mode=mode, clusters=1, workstations_per_cluster=1,
                     functional_payload_crypto=False)
    )
    campus.add_user("u", "pw")
    volume = campus.create_user_volume("u")
    for depth in DEPTHS:
        directory = "/" + "/".join(f"d{i}" for i in range(depth))
        tree = {f"{directory}/leaf": b"payload"}
        campus.populate(volume, tree, owner="u")
    return campus


def measure(mode):
    campus = build(mode)
    session = campus.login(0, "u", "pw")
    server = campus.server(0)
    rows = []
    for depth in DEPTHS:
        path = "/vice/usr/u/" + "/".join(f"d{i}" for i in range(depth)) + "/leaf"
        busy_before = server.host.cpu.utilization._busy_integral
        server.host.cpu.utilization._accumulate()
        busy_before = server.host.cpu.utilization._busy_integral
        campus.run_op(session.stat(path))
        server.host.cpu.utilization._accumulate()
        cold_cpu = server.host.cpu.utilization._busy_integral - busy_before
        # Second stat: warm paths (revised Venus has the directories cached).
        busy_before = server.host.cpu.utilization._busy_integral
        campus.run_op(session.stat(path))
        server.host.cpu.utilization._accumulate()
        warm_cpu = server.host.cpu.utilization._busy_integral - busy_before
        rows.append({"depth": depth, "cold": cold_cpu, "warm": warm_cpu})
    return rows


def test_exp8_path_traversal(benchmark):
    results = one_round(
        benchmark, lambda: {mode: measure(mode) for mode in ("prototype", "revised")}
    )

    table = Table(
        ["path depth", "prototype cold (ms)", "prototype warm (ms)",
         "revised cold (ms)", "revised warm (ms)"],
        title="EXP-8: server CPU per stat vs pathname depth",
    )
    for proto, revised in zip(results["prototype"], results["revised"]):
        table.add(
            proto["depth"],
            f"{proto['cold'] * 1000:.1f}",
            f"{proto['warm'] * 1000:.1f}",
            f"{revised['cold'] * 1000:.1f}",
            f"{revised['warm'] * 1000:.1f}",
        )
    save_table("EXP-8_path_traversal", table)

    benchmark.extra_info.update(
        {mode: [{k: round(v, 5) for k, v in row.items()} for row in rows]
         for mode, rows in results.items()}
    )

    proto = results["prototype"]
    revised = results["revised"]
    # Prototype server CPU grows with depth (it walks the whole pathname
    # on every call, warm or cold).
    assert proto[-1]["warm"] > 1.8 * proto[0]["warm"]
    # Revised *warm* server cost is flat in depth and far below prototype:
    revised_warm = [row["warm"] for row in revised]
    assert max(revised_warm) < 1.6 * min(revised_warm) + 1e-6
    for proto_row, revised_row in zip(proto, revised):
        assert revised_row["warm"] < 0.35 * proto_row["warm"]
