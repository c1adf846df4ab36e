#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark (a Go module of
# its own, benchmark/go.mod) inside the checkout and runs it with the
# driver's arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything Go writes — build cache, module cache, temp files, the built
# binaries — goes under .bench_build in the checkout, and the user's Go
# environment file is not read, so the run touches nothing outside it.
# Without the repository's sources around it the build fails and the script
# exits non-zero before printing anything to standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

cd "$root"
go -C benchmark build -o "$build/bin/logan-benchmark" . >&2
exec "$build/bin/logan-benchmark" "$@"
