#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see bench/README.md). Everything the build and the runs
# write stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The Go tool otherwise writes its build cache, temporary files and
# telemetry counters under the home directory and /tmp.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
# Build offline with the installed toolchain and exactly the sources
# checked out.
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go build -C "$root/bench" -buildvcs=false -o "$out/parcoach-bench" .
cd "$root"
exec "$out/parcoach-bench" "$@"
