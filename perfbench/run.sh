#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository; the arguments are passed on to the benchmark:
#
#   bash perfbench/run.sh --workload swap-dp1 --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build/ in the repository, so the first run in a fresh checkout
# also compiles the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -buildvcs=false -o "$out/perfbench" .

commit=unknown
if rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$rev+dirty"
fi
exec "$out/perfbench" --commit "$commit" "$@"
