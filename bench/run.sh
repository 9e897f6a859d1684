#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash bench/run.sh --workload mission --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the go command's config and telemetry, the binary and
# every temporary file (fleet journal, flight archives) stay under
# .bench_build/ at the checkout root. Without the repository beside bench/
# the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/bench" build -o "$out/airbench" .
exec "$out/airbench" "$@"
