#!/usr/bin/env bash
# Structural and documentation gate. The rules are one table in
# scripts/doclint (rules.go), each row naming the invariant it guards;
# `go test ./scripts/doclint` runs every row against its fixtures and the
# repository. This script adds the one check that needs a built program:
# the generated blocks of docs/SERVING.md must be what the parameter
# tables and `logan-serve -h` generate. It runs on the repository it sits
# in, from any directory; CI runs it alongside the unit tests.
set -euo pipefail
cd "$(dirname "$0")/.."
# The rules read the working directory recursively: refuse to start
# anywhere but the root of this module.
if ! grep -qx 'module logan' go.mod 2>/dev/null; then
	echo "doc-lint: $(pwd) is not the root of module logan (no go.mod declaring it); run the script from its place in the repository" >&2
	exit 1
fi

# A stale block means a parameter row or a flag changed without the
# operator guide: paste the lines diff marks ">" over the block they name.
if ! sed -n '/^<!-- generated:/,/^<!-- \/generated -->/p' docs/SERVING.md |
	diff - <(go run ./cmd/logan-serve -h 2>&1 | go run ./scripts/doclint serving); then
	echo "doc-lint: the generated blocks of docs/SERVING.md are stale (< file, > generated)" >&2
	exit 1
fi

exec go run ./scripts/doclint .
