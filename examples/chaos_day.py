#!/usr/bin/env python3
"""A bad day on campus: lunchtime server outage plus a flaky backbone.

§2.2's availability stance — "single point network or machine failures
should not affect the entire user community; we are willing to accept
temporary loss of service to small groups of users" — acted out with the
fault-injection subsystem (``repro.faults``) and measured with the
availability tracker (``repro.obs.availability``):

* from mid-morning the backbone drops and corrupts a few percent of
  packets (retransmissions and MAC rejections, not data loss);
* at "lunchtime" the cluster-0 server crashes and salvages back;
* synthetic users keep working throughout; the report shows who noticed,
  for how long, and how quickly service returned.

Run:  python examples/chaos_day.py
"""

from repro.analysis import availability_report
from repro.faults import Fault, FaultPlan
from repro.workload.scenario import SCENARIOS

WARMUP = 120.0
DAY = 1500.0


def main():
    plan = FaultPlan(name="chaos-day", seed=42, faults=(
        # The backbone turns flaky mid-morning and stays bad all day.
        Fault("link", "backbone", start=WARMUP + 200.0, duration=1200.0,
              loss=0.02, corrupt=0.01, duplicate=0.01),
        # The cluster-0 server dies at lunch and salvages back.
        Fault("server_crash", "server0", start=WARMUP + 600.0, duration=180.0),
    ))
    print(f"Scripted outages: {len(plan.faults)} fault windows, seed {plan.seed}")
    for fault in plan.faults:
        print(f"  t={fault.start:6.0f}s  {fault.kind:12s} {fault.target:10s} "
              f"for {fault.duration:.0f}s")
    print()

    # The catalogue's day, scaled to a revised 2 x 3 campus under the plan.
    campus, summary = SCENARIOS["proto-20"]().with_(
        mode="revised", clusters=2, workstations_per_cluster=3,
        fault_plan=plan, hot_files=8, cold_files=10, shared_files=10,
        binary_files=6, warmup=WARMUP, duration=DAY).day()
    tracker = campus.availability

    print(f"The day: {summary['actions']} user actions over "
          f"{summary['duration']:.0f} virtual seconds")
    print()
    print(availability_report(campus))
    print()

    avail = summary["availability"]
    print(f"campus availability: {avail['availability']:.2%} "
          f"({avail['failures']} failed of {avail['attempts']} attempts)")
    mttr = avail["mttr"]
    if mttr["count"]:
        print(f"outages: {avail['outages']} episodes, MTTR mean "
              f"{mttr['mean']:.0f}s, p90 {mttr['p90']:.0f}s, "
              f"worst {mttr['max']:.0f}s")
    ttfs = avail["ttfs"]
    if ttfs["count"]:
        print(f"after each repair, first successful op within "
              f"{ttfs['mean']:.0f}s on average")
    events = avail["events"]
    print(f"injected {events['faults_injected']} faults, "
          f"{events['recoveries']} recoveries, "
          f"{events['salvages']} salvage passes")
    injected = {k: v for k, v in campus.fault_scheduler.stats.items() if v}
    print(f"wire damage: {injected}")
    rejected = (
        sum(ws.venus.node.corrupt_rejected for ws in campus.workstations)
        + sum(server.node.corrupt_rejected for server in campus.servers)
    )
    print(f"corrupted packets rejected by the integrity layer: {rejected} "
          "(none accepted)")
    print()
    print("The paper's claim holds: the crash cost its cluster some minutes,"
          " the rest of campus kept working.")


if __name__ == "__main__":
    main()
