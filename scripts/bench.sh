#!/bin/sh
# Performance trajectory harness (docs/PERF.md): runs the curated
# deterministic benchmark set at fixed iteration counts and either
# diffs the result against the committed BENCH_quick.json (default;
# allocs/op and B/op exact, wall time and throughput within slack) or
# rewrites it (-update). Benchmarks are included only when their
# allocation profile is bit-stable across machines: single-goroutine
# seeded workloads, plus the cell worker-pool benchmark. The pool's
# allocs/op is exact, but its B/op is not: the runtime allocates while
# it schedules the workers, so B/op drifts by tens of bytes run to run.
# The pool rows therefore record and compare allocs/op only. So does
# workload.NewGenerator: each op allocates ~390 KB of Zipf tables over
# milliseconds, long enough for the runtime's own background
# allocations to add a few bytes to B/op run to run. Wall-clock
# numbers are machine-dependent and carry a generous tolerance
# (override with BENCH_SLACK).
set -eu
cd "$(dirname "$0")/.."

mode=diff
if [ "${1:-}" = "-update" ]; then
	mode=update
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT

run_benches() {
	go test -run '^$' -bench '^(BenchmarkSimStep|BenchmarkRunQuantum)$' -benchtime 100000x -benchmem ./internal/cmpsim
	go test -run '^$' -bench '^(BenchmarkHitClosest|BenchmarkHitCommunication|BenchmarkMissCapacity|BenchmarkMixedWorkload)$' -benchtime 10000x -benchmem ./internal/core
	go test -run '^$' -bench '^(BenchmarkSharedAccess|BenchmarkSNUCAAccess|BenchmarkPrivateAccess)$' -benchtime 10000x -benchmem ./internal/l2
	go test -run '^$' -bench '^(BenchmarkGeneratorNext|BenchmarkMixNext)$' -benchtime 100000x -benchmem ./internal/workload
	go test -run '^$' -bench '^BenchmarkNewGenerator$' -benchtime 20x -benchmem ./internal/workload |
		sed '/^BenchmarkNewGenerator/s| *[0-9.]* B/op||'
	go test -run '^$' -bench '^BenchmarkExecuteCells$' -benchtime 200x -benchmem ./internal/experiments |
		sed '/^BenchmarkExecuteCells/s| *[0-9.]* B/op||'
}

run_benches > "$out"

if [ "$mode" = update ]; then
	go run ./cmd/benchreport -write BENCH_quick.json < "$out"
else
	go run ./cmd/benchreport -diff BENCH_quick.json -slack "${BENCH_SLACK:-8}" < "$out"
fi
