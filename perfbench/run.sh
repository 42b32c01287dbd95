#!/usr/bin/env bash
# Builds costd and the benchmark from this checkout, then runs one benchmark
# run. Run from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload price --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Telemetry off (as `go telemetry off` would set it): otherwise each go
# command may fork a detached telemetry process that outlives this run.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/costd" repro/cmd/costd && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --costd "$out/costd" --out "$out/perfbench" "$@"
