#!/usr/bin/env bash
# Builds the benchmark driver from the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload paper|fuzz|lint --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Everything the build and the run write
# (Go build cache, binary, trace files) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

commit=none
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo none)
fi

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -commit "$commit" -out "$out" "$@"
