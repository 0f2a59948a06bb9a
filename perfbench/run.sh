#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload in its own
# process. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced pass's span files all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory. The build fails, and the script exits nonzero without a
# result, when the repository's sources are not beside this directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home \
	GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off

src=$(cd "$(dirname "$0")" && pwd)
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
