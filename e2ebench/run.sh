#!/usr/bin/env bash
# Builds the end-to-end benchmark and the sweepd server from this checkout
# into .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload detail_grid --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the benchmark's own scratch files all stay under .bench_build/, and no
# module is fetched from the network. Build output goes to standard error,
# so the last line of standard output is the benchmark's result object.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/e2ebench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(
	cd "$root/e2ebench"
	go build -o "$out/bin/e2ebench" .
	go build -o "$out/bin/sweepd" repro/cmd/sweepd
) >&2
exec "$out/bin/e2ebench" --root "$root" --out "$out" --sweepd "$out/bin/sweepd" "$@"
