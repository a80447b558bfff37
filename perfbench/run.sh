#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see README.md).
# Build cache, databases and trace files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go" "$build/perfbench"
export GOCACHE="$build/go/cache" GOPATH="$build/go/path" XDG_CONFIG_HOME="$build/go/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --work "$build/perfbench" "$@"
