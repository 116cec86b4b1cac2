#!/usr/bin/env bash
# Builds reapd and the benchmark from the tree it is run in, then runs
# one workload:
#
#   bash perfbench/run.sh --workload solve-batch --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything it builds or writes stays
# under .bench_build/: the Go build cache, the go command's temporary
# files, and its configuration directory, where it would otherwise keep
# telemetry.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/reapd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/reapd and perfbench/ are needed)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/reapd" ./cmd/reapd
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" -reapd "$out/reapd" -state "$out" "$@"
