#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache,
# scratch files and traces all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build" "$@"
