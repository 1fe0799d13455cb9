#!/usr/bin/env bash
# Builds the benchmark and the cmd/experiments daemon binary from source
# under .bench_build/ in the current directory (the checkout root), then
# runs the benchmark with the given arguments, e.g.
#
#   bash mlpbench/run.sh --workload gang-sweep --seed 1 --seconds 25 --trace 0
#
# Build output goes to standard error; standard output carries only the
# benchmark's report, ending with its JSON result line.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if ! (cd "$here" && go build -o "$out/bin/mlpbench" . &&
	go build -o "$out/bin/experiments" mlpsim/cmd/experiments) >&2; then
	echo "mlpbench: build failed" >&2
	exit 1
fi
exec "$out/bin/mlpbench" "$@"
