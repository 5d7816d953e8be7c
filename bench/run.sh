#!/usr/bin/env bash
# Builds jsrevealer and the load benchmark from the working tree, then runs
# the benchmark from the repository root with the given flags, e.g.
#
#   bash bench/run.sh -seed 1                      # both workloads
#   bash bench/run.sh -workload detect-obfuscated -seed 3 -seconds 30
#   bash bench/run.sh -workload scan-crawl -trace 1
#
# Binaries, the Go build cache and temporary files, the Go tool's own
# configuration, the fixture model and run outputs all live under
# .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o .bench_build/jsrevealer ./cmd/jsrevealer
go -C bench build -o "$root/.bench_build/benchrun" .
exec .bench_build/benchrun "$@"
