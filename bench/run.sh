#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the harness from
# source, then run one workload in one process.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything it writes stays inside
# the checkout: the binary and the Go build cache under .bench_build/,
# the traces under bench/out/. bench/ is a module of its own that
# replaces sasgd with the parent directory, so in a directory without
# the rest of the repository the build fails and nothing is run.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/sasgd-bench" . >&2
cd "$root"
exec "$build/sasgd-bench" "$@"
