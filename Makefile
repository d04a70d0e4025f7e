PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test ledger-test bench-smoke campus-smoke metropolis-smoke chaos-smoke redundancy-smoke soak-smoke trace-smoke bench results results-check

# Tier-1 gate: the full test suite plus the wall-clock time budgets.
# A >2x wall-clock regression in the kernel, cipher or the end-to-end
# campus path fails the corresponding smoke target; trace-smoke fails on
# a gap in span coverage; results-check fails on a moved EXP table.  Every
# smoke CI runs is in here.
check: test ledger-test bench-smoke campus-smoke metropolis-smoke chaos-smoke redundancy-smoke soak-smoke trace-smoke results-check

test:
	$(PYTHON) -m pytest tests/ -q

# The cost ledger's own tests (schema, BENCHMARK.json <-> catalogue, the
# profile fold, span self-time, the --quick pipeline); ~20 s, not tier-1.
ledger-test:
	$(PYTHON) -m pytest benchmarks/ledger -q

bench-smoke:
	$(PYTHON) benchmarks/bench_kernel.py --smoke

# Scaled-down 20-workstation campus under a hard wall-clock budget.
campus-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_campus.py --smoke --json benchmarks/results/campus-smoke.json

# Scale sweep (200 + 1,000 workstations) under a hard wall-clock budget
# and a 145 MiB peak-RSS budget (the 115.8 MiB reading + 25 %; 144.1
# while read bodies stayed built).  The 5,000-workstation scale runs only
# in the full sweep (no --smoke): 3.6-5.9 s and 406 MiB to build, 22-44 s
# to run.
metropolis-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_metropolis.py --smoke --json benchmarks/results/metropolis-smoke.json

# Availability under fault plans, scaled shape under a hard wall-clock
# budget; fails if the clean plan reports any failure or outage.
chaos-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_availability.py --smoke \
		--json benchmarks/results/chaos-smoke.json \
		--timeline benchmarks/results/outage-timeline.json

# Replication factors and a 2+1 stripe x fault plans, corner cells under a
# hard wall-clock budget; fails if a clean cell has outages, replication
# fails to beat the unreplicated baseline under a server crash, or the
# stripe does not degrade-read through it with zero lost writes and end
# the day rebuilt to full health.
redundancy-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_redundancy.py --smoke \
		--json benchmarks/results/redundancy-smoke.json

# Six virtual hours at 200 workstations under chaos, every soak invariant
# checked per window, plus the sabotaged negative control; fails on any
# violation, a missed sabotage, or a blown wall budget.
soak-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_soak.py --smoke \
		--json benchmarks/results/soak-smoke.json \
		--metrics benchmarks/results/soak-metrics.jsonl \
		--events benchmarks/results/soak-events.jsonl

# Run the Andrew benchmark traced (revised mode) and validate the trace
# covers open -> RPC -> server -> disk for at least one fetch and one store.
trace-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) -m repro andrew --mode revised --trace benchmarks/results/trace-smoke.json --check

# The tracked wall-clock harness (writes benchmarks/results/BENCH_<date>.json).
bench:
	$(PYTHON) benchmarks/run_all.py --json

# Regenerate every EXP-* evaluation table.
results:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# The pathname family's merge gate: no gated ledger workload runs prototype
# mode, so its end-to-end coverage is the EXP tables — regenerate them
# (~40 s) and fail on any drift.  EXP-12's clone column is wall-clock.
results-check: results
	git diff --exit-code -- 'benchmarks/results/EXP-*.txt' \
		':(exclude)benchmarks/results/EXP-12_volumes.txt'
