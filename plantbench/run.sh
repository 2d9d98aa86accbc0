#!/usr/bin/env bash
# Builds the decode-plant benchmark from the sources of the checkout it
# is started in (the repository root) and runs it with the given flags:
#
#   bash plantbench/run.sh --workload stream-circuit-L16 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/plantbench" && go build -o "$out/plantbench" .)
exec "$out/plantbench" "$@"
