#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash xlbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Every file the build and the run
# write stays under .bench_build/ there: the Go build cache, temporary
# files and the benchmark binary, and the run's report and span dump.
set -euo pipefail

root=$(pwd)
here="$root/xlbench"
build="$root/.bench_build/xlbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -trimpath -o "$build/xlbench" .) >&2
exec "$build/xlbench" -root "$root" -out "$build" -commit "$commit" "$@"
