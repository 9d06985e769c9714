#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, Chrome traces) lands under .bench_build/perfbench
# in the checkout, or under $CARGO_TARGET_DIR/perfbench when that is set.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
