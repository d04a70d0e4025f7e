"""EXP-6 — check-on-open vs invalidate-on-modification (§3.2, §5.2).

Paper: "Based on these observations we have concluded that major
performance improvement is possible if cache validity checks are
minimized.  This has led to the alternate cache invalidation scheme"
(callbacks) — weighed against "larger server state and slower updates".

Same synthetic day, same revised servers; only the validation policy
changes.
"""

from repro.analysis import Table, format_share
from repro.workload.scenario import SCENARIOS

from _common import one_round, save_table


def test_exp6_validation_policy(benchmark):
    def both_policies():
        results = {}
        for policy in ("check-on-open", "callback"):
            campus, summary = SCENARIOS["proto-20"]().with_(
                mode="revised", validation=policy, seed=7).day()
            server = campus.server(0)
            results[policy] = {
                "validate_calls": server.call_mix.count("validate"),
                "total_calls": server.call_mix.total,
                "server_cpu": summary["busiest_cpu"],
                "callback_state": server.clients.promises_held,
                "breaks": server.clients.promises_broken,
                "hit_ratio": summary["hit_ratio"],
            }
        return results

    results = one_round(benchmark, both_policies)
    check, callback = results["check-on-open"], results["callback"]

    table = Table(
        ["quantity", "check-on-open", "callback"],
        title="EXP-6: validation policy ablation (revised servers, same day)",
    )
    table.add("validation calls", check["validate_calls"], callback["validate_calls"])
    table.add("total server calls", check["total_calls"], callback["total_calls"])
    table.add("busiest server CPU", format_share(check["server_cpu"]),
              format_share(callback["server_cpu"]))
    table.add("callback state (promises held)", check["callback_state"],
              callback["callback_state"])
    table.add("callback breaks sent", check["breaks"], callback["breaks"])
    table.add("hit ratio", format_share(check["hit_ratio"]),
              format_share(callback["hit_ratio"]))
    save_table("EXP-6_validation_policy", table)

    benchmark.extra_info.update(results)

    # The redesign's argument, quantitatively:
    # 1. callbacks eliminate nearly all validation traffic;
    assert callback["validate_calls"] < 0.15 * max(1, check["validate_calls"])
    # 2. total server load drops substantially;
    assert callback["total_calls"] < 0.7 * check["total_calls"]
    assert callback["server_cpu"] < check["server_cpu"]
    # 3. the price is server state that check-on-open never carries.
    assert callback["callback_state"] > 0
    assert check["callback_state"] == 0
