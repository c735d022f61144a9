#!/bin/sh
# Regenerates BENCH_SCHED.json: the communication-scheduling frontier
# for SASGD p=8 on the simulated CIFAR-10 platform. Part one sweeps the
# composable policies — T-scheduler (static / adaptive), flat vs
# two-level island aggregation, eager vs delayed global application — on
# an uplink-constrained fabric (cross-island bandwidth = peer/4, islands
# of two ranks) and records words on the wire, cross-island words per
# local step, simulated epoch seconds and final test accuracy per row.
# Part two reruns the communication-bound T=1 ptree column with delayed
# application on the standard fabric. Acceptance: the hierarchical rows
# must cut cross-island words per step by at least 2x vs flat eager at
# the same inner period, and the delayed T=1 run must beat the PR-3/4
# overlap baseline on epoch time while hiding a larger fraction of the
# serial schedule's communication seconds (hidden(sim) = 1 -
# SimComm/serial SimComm; the wall-trace fraction is also recorded but
# undercounts on hosts whose core count serializes the learners).
#
#   scripts/bench_sched.sh             # default epoch budget
#   EPOCHS=4 scripts/bench_sched.sh    # longer runs
set -eu
cd "$(dirname "$0")/.."

out="BENCH_SCHED.json"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go run ./cmd/experiments -only sched -epochs "${EPOCHS:-0}" -json "$dir"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "gomaxprocs": %s,\n' "$(nproc)"
    printf '  "note": "CrossPerStep is cross-island (uplink) words per local step per learner; CrossReduction is the flat-eager static row divided by this row. The hierarchical rows aggregate inside each island every boundary and cross the uplink once every TOuter=4 boundaries, so their uplink traffic drops ~4x at identical inner period (the adaptive row widens T further and drops more). HiddenSimFraction is 1 - delayed.SimComm/serial.SimComm: the simulator charges comm seconds only when an arrival Syncs a learner clock forward, so this counts exactly the transfer time that surfaced on the critical path; OverlapHiddenSimFraction is the same metric for the PR-4 backward-overlap baseline. HiddenTraceFraction (wall-clock span intersection) is reported for completeness but undercounts when the host serializes the learners onto few cores.",\n'
    printf '  "result": '
    sed 's/^/  /' "$dir/sched.json" | sed '1s/^ *//'
    printf '\n}\n'
} > "$out"
echo "wrote $out"
