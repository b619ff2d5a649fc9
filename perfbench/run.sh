#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

# With telemetry on (the default, "local"), every go command may start a
# detached telemetry sidecar that outlives the build. Turning it off first
# keeps the benchmark from leaving any process behind.
go telemetry off >&2
go build -o "$out/bin/experiments" ./cmd/experiments >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
