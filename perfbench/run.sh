#!/usr/bin/env bash
# Builds the benchmark and the server it drives from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-query --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, the two binaries, and each run's snapshots and server logs.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/aqserver || ! -d internal/core ]]; then
	echo "perfbench: run from the root of an accessquery checkout" >&2
	exit 1
fi

out=".bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/go-cache"
export GOPATH="$PWD/$out/gopath"
export GOTMPDIR="$PWD/$out/tmp"
export TMPDIR="$PWD/$out/tmp"
export GOTOOLCHAIN=local
# Keep the toolchain's own config and telemetry files inside the checkout.
export XDG_CONFIG_HOME="$PWD/$out/config"

go build -o "$out/perfbench" ./perfbench
go build -o "$out/aqserver" ./cmd/aqserver
exec "$out/perfbench" -server "$out/aqserver" -workdir "$out" "$@"
