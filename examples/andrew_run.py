#!/usr/bin/env python3
"""The 5-phase benchmark (§5.2), local vs remote, both implementations.

Reproduces the paper's headline measurement in miniature: "the benchmark
takes about 1000 seconds ... about 80% longer when the workstation is
obtaining all its files from an unloaded Vice server" — and then shows
what the redesign buys.

Run:  python examples/andrew_run.py          (takes a few seconds of wall time)

For one run's spans and metrics, record it instead:
``python -m repro andrew --mode revised --trace --out DIR`` (see
docs/observability.md).
"""

from repro.workload import PHASES, andrew_campus


def run_variant(mode, remote):
    campus, bench = andrew_campus(mode, remote)
    return campus.run_op(bench.run())


def main():
    print("Running the 5-phase benchmark (virtual seconds)...\n")
    local = run_variant("prototype", remote=False)
    proto = run_variant("prototype", remote=True)
    revised = run_variant("revised", remote=True)

    header = f"{'phase':<10} {'local':>9} {'prototype remote':>17} {'revised remote':>15}"
    print(header)
    print("-" * len(header))
    for phase in PHASES:
        print(f"{phase:<10} {local.phase_seconds[phase]:>8.1f}s "
              f"{proto.phase_seconds[phase]:>16.1f}s "
              f"{revised.phase_seconds[phase]:>14.1f}s")
    print("-" * len(header))
    print(f"{'Total':<10} {local.total_seconds:>8.0f}s "
          f"{proto.total_seconds:>16.0f}s {revised.total_seconds:>14.0f}s")
    print()
    print(f"paper:    local ≈ 1000s, remote ≈ 80% longer")
    print(f"measured: local = {local.total_seconds:.0f}s, prototype remote = "
          f"+{proto.total_seconds / local.total_seconds - 1:.0%}, "
          f"revised remote = +{revised.total_seconds / local.total_seconds - 1:.0%}")


if __name__ == "__main__":
    main()
