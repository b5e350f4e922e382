#!/usr/bin/env bash
# Builds the load generator and runs it from the repository root; the
# arguments pass through (see main.go). The Go build cache and temporary
# files stay in .bench_build, so a run writes only inside the checkout.
# Build failures exit non-zero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
(cd loadbench && go build -o ../.bench_build/loadbench .)
exec .bench_build/loadbench "$@"
