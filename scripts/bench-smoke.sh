#!/usr/bin/env bash
# Bench smoke + perf trajectory artifact: run one iteration of every
# benchmark (catching benchmarks that no longer compile or crash, without
# paying for a real measurement) and convert the output into
# machine-readable BENCH_*.json files so each CI run leaves a comparable
# perf record instead of scroll-away logs. Usage: scripts/bench-smoke.sh
# [smoke.json [kernel.json [cache.json [map.json]]]]; CI uploads the files
# as an artifact.
set -euo pipefail

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# bench_json REGEX PACKAGE BENCHTIME OUT DERIVED runs the benchmarks
# matching REGEX in PACKAGE for BENCHTIME and writes OUT: date, commit,
# and a "benchmarks" array with one object per result line — name,
# iterations, and every value/unit pair after the iteration count as a
# field ("BenchmarkX-8  1  123 ns/op  45 B/op ..."), plus "pkg" when
# PACKAGE spans several packages. DERIVED is awk code run after the array
# closes to append top-level fields; it can read goos, goarch and cpu, and
# v(NAME_REGEX, UNIT), the value the last benchmark matching NAME_REGEX
# reported in UNIT (0 when none did).
bench_json() {
  local regex="$1" pkg="$2" benchtime="$3" out="$4" derived="$5"
  go test -run='^$' -bench="$regex" -benchtime="$benchtime" "$pkg" | tee "$RAW"
  awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      -v commit="${GITHUB_SHA:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}" \
      -v multi="$([ "${pkg%...}" != "$pkg" ] && echo 1 || echo 0)" '
function v(re, unit,    i, r) {
  r = 0
  for (i = 1; i <= n; i++) if (names[i] ~ re && ((i, unit) in val)) r = val[i, unit]
  return r
}
BEGIN {
  printf("{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n", date, commit)
  printf("  \"benchmarks\": [")
  n = 0
}
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^pkg: /    { pkg = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && NF >= 4 {
  if (n++) printf(",")
  names[n] = $1
  printf("\n    {")
  if (multi) printf("\"pkg\": \"%s\", ", pkg)
  printf("\"name\": \"%s\", \"iterations\": %s", $1, $2)
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1)
    val[n, unit] = $i
    gsub(/[^A-Za-z0-9_\/.]/, "_", unit)
    printf(", \"%s\": %s", unit, $i)
  }
  printf("}")
}
END {
  if (n == 0) exit 1
  printf("\n  ]")
  '"$derived"'
  printf("\n}\n")
}' "$RAW" > "$out" || {
    echo "bench-smoke: no benchmark lines found for $out" >&2
    exit 1
  }
  # The artifact is only useful if it parses; fail the build otherwise.
  python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$out" 2>/dev/null \
    || { echo "bench-smoke: $out is not valid JSON" >&2; exit 1; }
  echo "bench-smoke: wrote $out ($(grep -c '"name"' "$out") benchmarks), ending:"
  sed -n '/^  ]/,$p' "$out"
}

# One iteration of everything, with the platform the numbers came from.
bench_json . ./... 1x "${1:-BENCH_smoke.json}" '
  printf(",\n  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"", goos, goarch, cpu)'

# Kernel comparison: the scalar / vector / ksw2-striped sweep across band
# regimes plus the 10k-pair forced-kernel batch run. The vector-over-scalar
# speedup of the batch cells/ns is the acceptance number for the vector
# kernel (>= 1.3x).
bench_json '^(BenchmarkKernel|BenchmarkPoolKernel10k)$' ./internal/xdrop/ 1x "${2:-BENCH_kernel.json}" '
  scalar = v("PoolKernel10k/scalar", "cells/ns"); vector = v("PoolKernel10k/vector", "cells/ns")
  if (scalar > 0 && vector > 0) printf(",\n  \"vector_speedup_10k\": %.3f", vector / scalar)'

# Result cache: serving a warm repeated request from the content-addressed
# cache vs recomputing the identical pairs on the engine (a hit skips
# queueing, scheduling and the whole DP).
bench_json '^BenchmarkCacheServe$' . 20x "${3:-BENCH_cache.json}" '
  hit = v("CacheServe/hit", "ns/op"); recompute = v("CacheServe/recompute", "ns/op")
  if (hit > 0 && recompute > 0) printf(",\n  \"cache_speedup\": %.3f", recompute / hit)'

# Mapping: the minimize -> chain -> extend pipeline placing a simulated
# read set against a 1 Mbp synthetic reference. reads/sec is the mapping
# tier's throughput headline; anchors/read guards the seeding density (a
# collapse there means the minimizer index regressed even if throughput
# held up).
bench_json '^BenchmarkMap$' . 1x "${4:-BENCH_map.json}" '
  rps = v(".", "reads/sec"); apr = v(".", "anchors/read")
  if (rps > 0) printf(",\n  \"reads_per_sec\": %s", rps)
  if (apr > 0) printf(",\n  \"anchors_per_read\": %s", apr)'
