PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test ledger-test bench-smoke metropolis-smoke redundancy-smoke soak-smoke trace-smoke results results-check

# Tier-1 gate: the full test suite plus the time budgets.  A >2x
# regression in the kernel, cipher or the end-to-end campus path fails
# the corresponding smoke target (bench-smoke on wall time, the campus
# smokes on process CPU time); trace-smoke fails on a gap in span
# coverage; results-check fails on a moved EXP table.  Every smoke CI
# runs is in here.
check: test ledger-test bench-smoke metropolis-smoke redundancy-smoke soak-smoke trace-smoke results-check

test:
	$(PYTHON) -m pytest tests/ -q

# The cost ledger's own tests (schema, BENCHMARK.json <-> catalogue, the
# profile fold, span self-time, the --quick pipeline); ~20 s, not tier-1.
ledger-test:
	$(PYTHON) -m pytest benchmarks/ledger -q

bench-smoke:
	$(PYTHON) benchmarks/bench_kernel.py --smoke

# Scale sweep (200 + 1,000 workstations): fails if a scale's virtual
# outcome leaves its pins, a scale blows its CPU budget (2.5x the
# reading), or peak RSS passes 97 MiB (the 77.5 MiB reading + 25 %;
# 91.1 while every file inode kept an empty directory table, 103.3
# while the metrics registry kept a closure per instrument per host,
# 115.8 while every Venus cache copied each directory listing, 144.1
# while read bodies stayed built).  The 5,000-workstation scale
# runs only in the full sweep (no --smoke): 3.6-5.9 s and 406 MiB to
# build, 22-44 s to run.
metropolis-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_metropolis.py --smoke --json benchmarks/results/metropolis-smoke.json

# Availability under fault plans by redundancy mode: factors 1 and 3 and
# a 2+1 stripe x clean / server-crash / lossy-backbone, plus factor 1's
# deferred-write crash, under a 1.45 CPU s budget for the whole matrix
# (2.5x the 0.58 s reading it was set at; 0.63-0.79 s now) and a 34.1 MiB
# peak-RSS budget (the 27.2-27.3 MiB reading + 25 %; 28.7-28.8 MiB while
# shipped volumes were built into bytes, 39.2-39.9 MiB while provisioning
# encoded every coded file);
# fails if the matrix passes either budget, a clean cell has a failure
# or an outage, replication fails to beat the unreplicated baseline
# under a server crash, or the stripe does not degrade-read through it
# with zero lost writes and end the day rebuilt to full health.  Writes
# factor 1's server-crash timeline.
redundancy-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) benchmarks/bench_redundancy.py --smoke \
		--json benchmarks/results/redundancy-smoke.json \
		--timeline benchmarks/results/outage-timeline.json

# Six virtual hours at 200 workstations under chaos, every soak invariant
# checked per window, plus the sabotaged negative control; fails on any
# violation, a missed sabotage, or a blown wall budget.  The healthy day's
# record (summary, windows, ops log, ...) goes to soak-smoke/.
soak-smoke:
	$(PYTHON) benchmarks/bench_soak.py --smoke --out benchmarks/results/soak-smoke

# Run the Andrew benchmark traced (revised mode) and validate the trace
# covers open -> RPC -> server -> disk for at least one fetch and one store;
# the run's record (trace.json, spans.jsonl, ...) goes to trace-smoke/.
trace-smoke:
	$(PYTHON) -m repro andrew --mode revised --trace --check --out benchmarks/results/trace-smoke

# Regenerate every EXP-* evaluation table.
results:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

# The pathname family's merge gate: no gated ledger workload runs prototype
# mode, so its end-to-end coverage is the EXP tables — regenerate them
# (~40 s) and fail on any drift.  EXP-12's clone column is wall-clock.
results-check: results
	git diff --exit-code -- 'benchmarks/results/EXP-*.txt' \
		':(exclude)benchmarks/results/EXP-12_volumes.txt'
