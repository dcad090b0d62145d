#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from (the current directory) and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module cache, temporary files and telemetry, the binary, the
# tier's files and the span files.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
# The module imports the repository's internal packages through the replace
# directive in go.mod, so outside a full checkout this fails, as it should.
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
