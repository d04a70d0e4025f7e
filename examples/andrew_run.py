#!/usr/bin/env python3
"""The 5-phase benchmark (§5.2), local vs remote, both implementations.

Reproduces the paper's headline measurement in miniature: "the benchmark
takes about 1000 seconds ... about 80% longer when the workstation is
obtaining all its files from an unloaded Vice server" — and then shows
what the redesign buys.

Run:  python examples/andrew_run.py          (takes a few seconds of wall time)

``--trace FILE`` writes a Chrome-trace (Perfetto-loadable) file covering all
three variants; ``--metrics-json FILE`` dumps the last variant's metrics
registry.  See docs/observability.md.
"""

import argparse
import json
import sys

from repro.obs import TraceRecorder
from repro.workload import PHASES, andrew_campus


def run_variant(mode, remote, recorder=None):
    campus, bench = andrew_campus(mode, remote)
    if recorder is not None:
        recorder.attach(campus.sim)
    return campus, campus.run_op(bench.run())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--trace", metavar="FILE", default="",
                        help="write a Chrome-trace file covering all variants")
    parser.add_argument("--metrics-json", metavar="FILE", default="",
                        help="dump the revised-remote metrics registry as JSON")
    args = parser.parse_args([] if argv is None else argv)

    print("Running the 5-phase benchmark (virtual seconds)...\n")
    recorder = None
    if args.trace:
        # One recorder follows the run across the three campuses, so a
        # single trace file tells the whole local-vs-remote story.
        from repro.sim.kernel import Simulator
        recorder = TraceRecorder(Simulator())
    _, local = run_variant("prototype", remote=False, recorder=recorder)
    _, proto = run_variant("prototype", remote=True, recorder=recorder)
    campus, revised = run_variant("revised", remote=True, recorder=recorder)

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

    if recorder is not None:
        recorder.write_chrome_trace(args.trace)
        print(f"\ntrace: {len(recorder.spans)} spans -> {args.trace}")
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(campus.metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_json}")


if __name__ == "__main__":
    main(sys.argv[1:])
