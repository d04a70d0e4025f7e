PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test ledger-test bench-smoke days-smoke trace-smoke results results-check

# Tier-1 gate: the full test suite plus the time budgets.  A >2x
# regression in the kernel, cipher or the end-to-end campus path fails
# the corresponding smoke target (bench-smoke on wall time, days-smoke on
# process CPU time, peak RSS and the soak's wall time); trace-smoke fails
# on a gap in span coverage; results-check fails on a moved EXP table.
# Every smoke CI runs is in here.
check: test ledger-test bench-smoke days-smoke trace-smoke results-check

test:
	$(PYTHON) -m pytest tests/ -q

# The cost ledger's own tests (schema, BENCHMARK.json <-> catalogue, the
# profile fold, span self-time, the --quick pipeline); ~20 s, not tier-1.
ledger-test:
	$(PYTHON) -m pytest benchmarks/ledger -q

bench-smoke:
	$(PYTHON) benchmarks/bench_kernel.py --smoke

# The gated campus days, rows of one table (benchmarks/bench_days.py), in
# one process: the redundancy matrix (factors 1 and 3 and a 2+1 stripe x
# clean / server-crash / lossy-backbone, plus factor 1's deferred-write
# crash), the metropolis sweep (200 + 1,000 workstations) and six virtual
# hours at 200 workstations under chaos with every soak invariant checked.
# Fails on a moved pin, a violated invariant, a failed matrix check (an
# unclean clean cell, replication not beating factor 1 under a crash, a
# stripe that loses writes or ends unhealed) or a blown budget: 1.45 CPU s
# and 34.1 MiB for the matrix, 1.7 / 6.3 CPU s per metropolis scale and
# 97 MiB after the 1,000-workstation one, 180 wall s for the soak day.
# The full sweep and matrix (no --smoke) add 5,000 workstations, factor 2,
# the partition plan and a 4+2 column.  report.json and the soak day's
# record (summary, windows, ops log, timeline, ...) go to days-smoke/.
days-smoke:
	$(PYTHON) benchmarks/bench_days.py --smoke --out benchmarks/results/days-smoke

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
