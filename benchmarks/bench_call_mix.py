"""EXP-1 — the server call-mix histogram (§5.2).

Paper: "A histogram of calls received by servers in actual use shows that
cache validity checking calls are preponderant, accounting for 65% of the
total.  Calls to obtain file status contribute about 27%, while calls to
fetch and store files account for 4% and 2% respectively."

Regenerated by a synthetic day against the prototype configuration
(check-on-open validation, pathname servers).
"""

from repro.analysis import Table, comparison_table, format_share
from repro.system.calibration import CALL_MIX_TARGET

from _common import one_round, proto20_day, save_table


def test_exp1_call_mix(benchmark):
    campus, summary = one_round(benchmark, proto20_day)
    mix = summary["call_mix"]

    table = comparison_table(
        "EXP-1: server call mix, prototype, synthetic day",
        CALL_MIX_TARGET,
        mix,
        formatter=format_share,
        order=["validate", "status", "fetch", "store"],
    )
    detail = Table(["measured category", "share"], title="full measured histogram")
    for label, share in sorted(mix.items(), key=lambda kv: -kv[1]):
        detail.add(label, format_share(share))
    save_table("EXP-1_call_mix", table, detail)

    benchmark.extra_info["call_mix"] = {k: round(v, 4) for k, v in mix.items()}

    # Shape assertions: the paper's ordering and rough magnitudes.
    assert mix["validate"] > mix["status"] > mix["fetch"] > mix["store"]
    assert 0.50 <= mix["validate"] <= 0.78
    assert 0.18 <= mix["status"] <= 0.38
    assert mix["fetch"] <= 0.12
    assert mix["store"] <= 0.05
    # "These four calls encompass more than 98% of the calls" — allow 95%.
    four = mix["validate"] + mix["status"] + mix["fetch"] + mix["store"]
    assert four >= 0.95
