#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload mt-commercial --seed 42 --seconds 30 --trace 0
#
# Every build artefact, including the Go build cache, goes under
# $CARGO_TARGET_DIR (default .bench_build), so the benchmark writes
# nothing outside the checkout. See perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
