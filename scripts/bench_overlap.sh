#!/bin/sh
# Regenerates BENCH_OVERLAP.json: full T=1 SASGD training iterations with
# serial aggregation vs bucketed backward-overlapped aggregation
# (1/4/per-layer buckets) across p ∈ {2,4,8} on the reduced CIFAR family —
# the wall-clock companion to the simulated-seconds deltas recorded in
# EXPERIMENTS.md.
#
#   scripts/bench_overlap.sh                 # 300ms/bench
#   BENCHTIME=1s scripts/bench_overlap.sh
set -eu
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-300ms}"
out="BENCH_OVERLAP.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkOverlapAggregation' \
    -benchtime "$benchtime" ./internal/core | tee "$raw"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "gomaxprocs": %s,\n' "$(nproc)"
    printf '  "benchtime": "%s",\n' "$benchtime"
    printf '  "note": "ns per full T=1 SASGD run (1 epoch, reduced CIFAR net) per variant. Single-core caveat as in BENCH_COMM: with gomaxprocs 1 compute and communication share one core, so overlapping them cannot reduce wall-clock time — on such a host these figures measure the bucketing overhead (handle submission, per-bucket collectives), and any serial-vs-overlap delta is pure bookkeeping cost. The latency win the overlap exists for is pinned on the simulated paper fabric by TestOverlapSimFasterAtT1 and recorded in EXPERIMENTS.md; regenerate here on a multi-core box for a real wall-clock comparison.",\n'
    printf '  "results": {\n'
    awk '/^BenchmarkOverlapAggregation/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        sub(/^BenchmarkOverlapAggregation\//, "", name)
        lines[n++] = sprintf("    \"%s\": {\"ns_per_op\": %s}", name, $3)
    }
    END {
        for (i = 0; i < n; i++)
            printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    }' "$raw"
    printf '  }\n'
    printf '}\n'
} > "$out"

echo "wrote $out"
