#!/usr/bin/env bash
# Builds fleetbench from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash fleetbench/run.sh --workload rsu-http --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, spill files and span dumps all go to
# .bench_build/ under the checkout. No module is downloaded: fleetbench
# is a module of its own that replaces fuiov with the checkout itself.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
