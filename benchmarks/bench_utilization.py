"""EXP-3 — server resource utilization (§5.2).

Paper: "Server CPU utilization tends to be quite high: nearly 40% on the
most heavily loaded servers in our environment.  Disk utilization is lower,
averaging about 14% on the most heavily loaded servers...  The short-term
resource utilizations are much higher, sometimes peaking at 98% server CPU
utilization!  It is quite clear that the server CPU is the performance
bottleneck in our prototype."
"""

from repro.analysis import Table, format_share
from repro.system.calibration import SERVER_CPU_TARGET, SERVER_DISK_TARGET

from _common import one_round, proto20_day, save_table


def test_exp3_server_utilization(benchmark):
    campus, summary = one_round(benchmark, proto20_day)

    cpu = summary["busiest_cpu"]
    disk = summary["busiest_disk"]
    peak = summary["busiest_cpu_peak"]

    table = Table(["quantity", "paper", "measured"],
                  title="EXP-3: busiest-server utilization (8h-style window)")
    table.add("mean CPU", format_share(SERVER_CPU_TARGET), format_share(cpu))
    table.add("mean disk", format_share(SERVER_DISK_TARGET), format_share(disk))
    table.add("short-term CPU peak", "up to 98%", format_share(peak))
    save_table("EXP-3_utilization", table)

    benchmark.extra_info.update(
        {"cpu": round(cpu, 4), "disk": round(disk, 4), "cpu_peak": round(peak, 4)}
    )

    # Shape: CPU ≈ 40% band, disk well below CPU, bursty peaks above mean.
    assert 0.25 <= cpu <= 0.60
    assert 0.06 <= disk <= 0.25
    assert disk < cpu, "the server CPU must be the bottleneck, not the disk"
    assert peak > cpu * 1.25, "short-term peaks should far exceed the mean"
