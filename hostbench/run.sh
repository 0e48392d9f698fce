#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it. Run from the
# repository root:
#
#   bash hostbench/run.sh --workload sor-scale --seed 1995 --seconds 25 --trace 0
#
# Everything the build and the runs write (the binary, the Go build cache,
# per-run result files) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the repository root (go.mod and hostbench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C "$root/hostbench" build -o "$out/hostbench" . >&2
exec "$out/hostbench" "$@"
