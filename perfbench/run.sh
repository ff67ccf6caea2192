#!/usr/bin/env bash
# Builds the darksim benchmark from the sources of this checkout and runs
# it. From the repository root:
#
#   bash perfbench/run.sh --workload queries --seed 7 --seconds 30 --trace 0
#
# Build outputs (the binary, the Go build cache, trace files) go under
# $CARGO_TARGET_DIR when it is set, else .bench_build, both relative to
# the repository root. The last line of standard output is the JSON
# result; everything above it is the human-readable report.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a darksim checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Keep every file the go command writes (build cache, temporaries, its
# telemetry counters under the user config directory) inside $out, and
# never fetch a module or toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
