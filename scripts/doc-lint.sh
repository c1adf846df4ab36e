#!/usr/bin/env bash
# Documentation gate: every package must carry a package-level doc
# comment, and every exported symbol of the public root package must be
# documented — and every documented logan_jobs_* series must have one
# owner, the X-drop band loop one driver, the device batch one executor,
# and the root package no view of the kernel configuration. Run from the
# repo root; CI runs it alongside the unit tests.
# The doc checker itself is scripts/doclint.
set -euo pipefail
cd "$(dirname "$0")/.."

# The logan_jobs_* family belongs to cluster.Store alone: a series name
# registered at a second call site means the job store has forked again.
dup=$(grep -rhoE --include='*.go' --exclude='*_test.go' \
	'(Counter|[Gg]auge(Func)?|Histogram)\("logan_jobs_[a-z_]+"' . |
	grep -oE 'logan_jobs_[a-z_]+' | sort | uniq -d)
if [ -n "$dup" ]; then
	echo "doc-lint: logan_jobs_ series registered at more than one call site:" >&2
	echo "$dup" >&2
	exit 1
fi

# internal/xdrop has one wavefront driver (wave) under every row kernel,
# next to the frozen ExtendReference oracle: a third anti-diagonal loop
# header in non-test sources means the band machinery has forked again.
loops=$(grep -rnE --include='*.go' --exclude='*_test.go' 'd <= (m|mlen)\+n' internal/xdrop || true)
if [ "$(printf '%s' "$loops" | grep -c .)" -gt 2 ]; then
	echo "doc-lint: internal/xdrop holds the anti-diagonal loop more than twice (want: wave, ExtendReference):" >&2
	echo "$loops" >&2
	exit 1
fi

# internal/backend is the only place a batch is split, run and gathered:
# internal/loadbal is index arithmetic (no devices, no kernel), and the
# device batch entry point has one engine-side caller, backend.GPU (the
# paper harness in internal/bench and the examples call it directly by
# design). A caller anywhere else means the executor has forked again.
owns=$(grep -lE --include='*.go' --exclude='*_test.go' \
	'"logan/internal/(core|cuda)"' -r internal/loadbal || true)
if [ -n "$owns" ]; then
	echo "doc-lint: internal/loadbal must stay a pure partitioner (imports internal/core or internal/cuda):" >&2
	echo "$owns" >&2
	exit 1
fi
calls=$(grep -rnE --include='*.go' --exclude='*_test.go' 'core\.AlignBatch' . |
	grep -vE '^\./(internal/bench|examples|benchmark)/' || true)
if [ "$(printf '%s' "$calls" | grep -c .)" -ne 1 ] || ! printf '%s' "$calls" | grep -q '^\./internal/backend/gpu\.go:'; then
	echo "doc-lint: core.AlignBatch must have exactly one engine-side caller, internal/backend/gpu.go:" >&2
	echo "$calls" >&2
	exit 1
fi

# xdrop.Scheme is the only scoring carrier below logan.Config: the root
# package lowers once (Config.scheme) and never sees core.Config.
leaks=$(grep -lE '"logan/internal/core"' $(ls ./*.go | grep -v '_test\.go$') || true)
if [ -n "$leaks" ]; then
	echo "doc-lint: root-package sources import logan/internal/core (lower to xdrop.Scheme instead):" >&2
	echo "$leaks" >&2
	exit 1
fi

exec go run ./scripts/doclint .
