#!/bin/sh
# Repository health check: formatting, vet, the full test suite (every
# gate is a test: self-lint, protocol model checker, goldens and the
# -parallel cross-diffs, graceful degradation), the race gate, the
# mutant kill ratio, perfbench's own tests, and a single-iteration pass
# over every benchmark (so the whole evaluation pipeline is exercised).
# Used before publishing results.
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

echo "== generated-mutant kill ratio vs MUTATION_quick.json (docs/ANALYSIS.md) =="
go run ./cmd/mutcheck -quiet -diff MUTATION_quick.json

# perfbench is its own module, so `go test ./...` skips it; this
# catches an internal API change that breaks the benchmark.
echo "== perfbench tests =="
(cd perfbench && go test .)

echo "== benchmarks (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== full reproduction (optional, 56–60 s on a 2-vCPU VM): CMPNURAPID_FULL=1 go test -run TestFullReproduction -timeout 30m . =="
echo "OK"
