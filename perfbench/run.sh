#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-routed-small --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (Go's caches, the binary, journals, snapshots, spans) stays under
# $CARGO_TARGET_DIR, by default .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

export CARGO_TARGET_DIR="$out"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
