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

from repro.workload import andrew_campus

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


def run_andrew(mode="prototype", remote=True):
    """One benchmark run; returns (campus, AndrewResult)."""
    campus, bench = andrew_campus(mode=mode, remote=remote)
    result = campus.run_op(bench.run())
    return campus, result
