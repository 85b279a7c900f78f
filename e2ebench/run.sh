#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout that
# contains this script, then runs it from the checkout root:
#
#   bash e2ebench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache and the span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS=
go build -C "$root/e2ebench" -o "$out/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench" -out "$out" "$@"
