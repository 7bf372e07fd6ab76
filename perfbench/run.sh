#!/usr/bin/env bash
# Builds melserved and the benchmark from the checkout's sources, then
# runs the benchmark against that daemon. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_text_4k --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and Go's own state land in
# .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/melserved" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/melserved here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/melserved" ./cmd/melserved
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --daemon "$out/melserved" "$@"
