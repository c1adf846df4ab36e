#!/usr/bin/env bash
# Documentation gate: every package must carry a package-level doc
# comment, and every exported symbol of the public root package must be
# documented — and every documented logan_jobs_* series must have one
# owner, and the X-drop band loop one driver. Run from the repo root; CI
# runs it alongside the unit tests.
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

exec go run ./scripts/doclint .
