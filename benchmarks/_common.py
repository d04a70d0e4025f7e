"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's reported quantities (see
DESIGN.md's experiment index).  A bench:

* builds a campus and drives a workload in **virtual time**;
* prints (and saves under ``benchmarks/results/``) the same rows/series the
  paper reports, next to the paper's numbers;
* asserts the *shape* of the result — who wins, by roughly what factor —
  as the reproduction criterion (absolute numbers are calibrated, shapes
  are emergent);
* reports the simulation's **wall-clock** cost through pytest-benchmark
  (single round: these are simulations, not microbenchmarks).
"""

import os

from repro import ITCSystem, SystemConfig
from repro.analysis import Table
from repro.workload import andrew_campus, provision_campus, run_campus_day

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_table(name: str, *tables) -> None:
    """Print tables and persist them under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n\n".join(str(table) for table in tables) + "\n"
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text)
    print("\n" + text)


def one_round(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def campus_day(
    mode="prototype",
    clusters=1,
    workstations_per_cluster=20,
    duration=5400.0,
    warmup=5400.0,
    validation=None,
    seed=0,
):
    """The standard synthetic-day setup behind EXP-1/2/3/6."""
    campus = ITCSystem(
        SystemConfig(
            mode=mode,
            validation=validation,
            clusters=clusters,
            workstations_per_cluster=workstations_per_cluster,
            functional_payload_crypto=False,  # charge crypto time, skip real XOR
            cache_max_files=200,
            seed=seed,
        )
    )
    users = provision_campus(campus)
    summary = run_campus_day(campus, users, duration=duration, warmup=warmup)
    return campus, summary


def run_andrew(mode="prototype", remote=True):
    """One benchmark run; returns (campus, AndrewResult)."""
    campus, bench = andrew_campus(mode=mode, remote=remote)
    result = campus.run_op(bench.run())
    return campus, result
