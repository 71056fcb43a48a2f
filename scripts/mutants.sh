#!/bin/sh
# Seeded-mutant gates: every deliberately-broken variant committed to
# this repo must be caught by the checker or test set built to catch
# it. One script owns all of them so check.sh and CI cannot drift
# apart; internal/mutcheck's seeded-mutant regression test pins this
# script against the mutant registries it covers.
#
# These are the *hand-seeded* mutants (known bugs, fixed list). The
# generated-mutant campaign lives in `go run ./cmd/mutcheck`, which
# diffs the committed MUTATION_quick.json kill-ratio baseline.
set -eu
cd "$(dirname "$0")/.."

echo "== protocheck catches every seeded protocol mutant =="
# Keep this list in sync with internal/protocheck.MutantNames();
# TestMutantsScriptCoversProtocolMutants fails if one is missing.
for m in exit-c-on-busrdx panic-on-shared-busrd restore-m-to-s; do
	if go run ./cmd/protocheck -mutant "$m" -q >/dev/null 2>&1; then
		echo "protocol mutant $m passed the checker"
		exit 1
	fi
done

echo "== unitcheck catches seeded unit-confusion mutants =="
go build -o /tmp/simlint_mutants ./cmd/simlint
if (cd internal/simlint/testdata/unitmutants && /tmp/simlint_mutants -rules unitcheck ./... >/dev/null); then
	echo "seeded unit-confusion mutants passed unitcheck"
	exit 1
fi

echo "== hotpath catches seeded hot-path allocation mutants =="
if (cd internal/simlint/testdata/hotpathmutants && /tmp/simlint_mutants -rules hotpath ./... >/dev/null); then
	echo "seeded hot-path allocation mutants passed hotpath"
	exit 1
fi

echo "== synccheck catches seeded concurrency mutants =="
if (cd internal/simlint/testdata/syncmutants && /tmp/simlint_mutants -rules synccheck ./... >/dev/null); then
	echo "seeded concurrency mutants passed synccheck"
	exit 1
fi
# The lockfree mutant is the static pass's earn-your-keep proof: its
# guarded-field read outside the lock is a real race for concurrent
# callers, but the package test only reads after wg.Wait, so the race
# detector never sees a racy schedule. -race must PASS here while
# synccheck (above) fails — if -race starts failing, the mutant no
# longer demonstrates the gap and needs reseeding.
if ! (cd internal/simlint/testdata/syncmutants && go test -race -short ./... >/dev/null 2>&1); then
	echo "syncmutants must pass go test -race -short (the race is schedule-invisible by design)"
	exit 1
fi

echo "seeded-mutant gates OK"
