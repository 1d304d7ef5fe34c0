#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# traces, artifact caches) lands under $CARGO_TARGET_DIR, default
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
