#!/usr/bin/env bash
# Builds bench/cmd/esgperf from the checkout this script sits in and runs
# it from the repository root with the given arguments, e.g.
#
#   bash bench/run.sh -seed 42
#   bash bench/run.sh -workload scale-replan4 -seconds 20 -trace 0 -seed 1
#   bash bench/run.sh compare bench/results/seed-a.json bench/results/seed-b.json
#
# The Go build cache, module state and tool configuration live under
# .bench_build, so a run reads and writes nothing outside the checkout and
# needs no network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd bench && go build -o "$build/esgperf" ./cmd/esgperf) >&2
exec "$build/esgperf" "$@"
