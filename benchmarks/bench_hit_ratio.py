"""EXP-2 — whole-file cache hit ratio (§5.2).

Paper: "Measurements indicate an average cache hit ratio of over 80%
during actual use."
"""

from repro.analysis import Table, format_share
from repro.system.calibration import HIT_RATIO_TARGET
from repro.workload.scenario import SCENARIOS

from _common import one_round, save_table


def test_exp2_hit_ratio(benchmark):
    campus, summary = one_round(benchmark, SCENARIOS["proto-20"]().day)

    per_ws = [ws.venus.cache.hit_ratio for ws in campus.workstations]
    table = Table(["quantity", "paper", "measured"], title="EXP-2: Venus cache hit ratio")
    table.add("campus mean hit ratio", f"> {format_share(HIT_RATIO_TARGET)}",
              format_share(summary["hit_ratio"]))
    table.add("worst workstation", "—", format_share(min(per_ws)))
    table.add("best workstation", "—", format_share(max(per_ws)))
    save_table("EXP-2_hit_ratio", table)

    benchmark.extra_info["hit_ratio"] = round(summary["hit_ratio"], 4)
    assert summary["hit_ratio"] > HIT_RATIO_TARGET
    # No pathological workstation hides behind the mean.
    assert min(per_ws) > 0.5
