#!/bin/sh
# Repository health check: formatting, vet, full test suite, and a
# single-iteration pass over every benchmark (so the whole evaluation
# pipeline is exercised). Used before publishing results.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "unformatted files:" "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (short mode) =="
go test -race -short ./...

# One simlint invocation covers both output contracts: the text and
# NDJSON formats are locked by cmd/simlint's CLI tests, so running the
# module twice here only doubled the type-check cost. The default rule
# set includes hotpath, so this is also the hot-path self-lint gate.
echo "== simlint (incl. hotpath self-lint) =="
go run ./cmd/simlint ./...

echo "== generated-mutant kill ratio vs MUTATION_quick.json (docs/ANALYSIS.md) =="
go run ./cmd/mutcheck -quiet -diff MUTATION_quick.json

echo "== bench trajectory vs BENCH_quick.json (docs/PERF.md) =="
scripts/bench.sh

echo "== protocheck (protocol model checker) =="
go run ./cmd/protocheck

echo "== experiments quick scale vs golden, byte-identical at -parallel 1/4/8 =="
# One selection, three worker counts: the golden diff pins the bytes,
# and the cross-diffs pin that the worker count is unobservable in
# them (docs/PARALLEL.md) — the scheduler-equivalence contract that
# TestSchedulerEquivalence also checks under the race gate.
go run ./cmd/experiments -exp table1,fig5 -parallel 1 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p1.out
go run ./cmd/experiments -exp table1,fig5 -parallel 4 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p4.out
go run ./cmd/experiments -exp table1,fig5 -parallel 8 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p8.out
diff docs/golden/quick_table1_fig5.golden /tmp/quick_check_p4.out
diff /tmp/quick_check_p1.out /tmp/quick_check_p4.out
diff /tmp/quick_check_p1.out /tmp/quick_check_p8.out

echo "== experiments: opt-in ablations and sweeps vs golden at -parallel 1/4 =="
optin=abl-promotion,abl-tags,abl-replication,abl-optimizations,abl-cmigration,abl-update,abl-dnuca,bandwidth,capacity,sens-size,sens-seed
go run ./cmd/experiments -exp $optin -parallel 1 -warmup 50000 -instr 50000 -quiet > /tmp/optin_check_p1.out
go run ./cmd/experiments -exp $optin -parallel 4 -warmup 50000 -instr 50000 -quiet > /tmp/optin_check_p4.out
diff docs/golden/tiny_optin.golden /tmp/optin_check_p1.out
diff docs/golden/tiny_optin.golden /tmp/optin_check_p4.out

echo "== experiments: full -exp all selection byte-identical at -parallel 1/4 =="
go run ./cmd/experiments -exp all -parallel 1 -warmup 50000 -instr 50000 -quiet > /tmp/all_check_p1.out
go run ./cmd/experiments -exp all -parallel 4 -warmup 50000 -instr 50000 -quiet > /tmp/all_check_p4.out
diff /tmp/all_check_p1.out /tmp/all_check_p4.out

echo "== chaos: graceful degradation on cell failure =="
set +e
go run ./cmd/experiments -exp table1,fig7 -warmup 500 -instr 500 -max-cycles 500 -quiet > /tmp/chaos_smoke.out 2>/dev/null
chaos_code=$?
set -e
if [ "$chaos_code" -ne 1 ]; then
	echo "expected exit 1 on cell failure, got $chaos_code"
	exit 1
fi
grep -q "Table 1" /tmp/chaos_smoke.out
grep -q "ERR fig7:" /tmp/chaos_smoke.out
grep -q "FAILURE REPORT:" /tmp/chaos_smoke.out

echo "== benchmarks (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== full reproduction (optional, ~3 min): CMPNURAPID_FULL=1 go test -run TestFullReproduction -timeout 30m . =="
echo "OK"
