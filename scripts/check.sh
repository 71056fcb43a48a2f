#!/bin/sh
# Repository health check: formatting, vet, the full test suite (every
# gate is a test: self-lint, protocol model checker, goldens and the
# -parallel cross-diffs, graceful degradation), the race gate, the
# mutant kill ratio, perfbench's vet, tests and cell fingerprints, and a
# single-iteration pass over every benchmark (so the whole evaluation
# pipeline is exercised).
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

# perfbench is its own module, so `go vet ./...` and `go test ./...`
# skip it; these catch an internal API change that breaks the
# benchmark, and vet findings `go test`'s vet subset misses.
echo "== perfbench vet and tests =="
(cd perfbench && go vet . && go test .)

# Every simulated statistic perfbench fingerprints must match the
# recorded reference byte for byte (about 11 s on a 2-vCPU VM).
echo "== perfbench cell fingerprints vs reference.txt =="
tmp=$(mktemp -d)
(cd perfbench && go run . -write-reference "$tmp/reference.txt" && diff -u reference.txt "$tmp/reference.txt")
rm -rf "$tmp"

echo "== benchmarks (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== full reproduction (optional, about a minute on a 2-vCPU VM): CMPNURAPID_FULL=1 go test -run 'TestFullReproduction|TestFullEvaluation' -timeout 30m . ./cmd/experiments =="
echo "OK"
