#!/usr/bin/env bash
# A/A run: two full sets of all four workloads on the same commit, the
# sets interleaved and the order within a pair alternating, so drift of
# the box hits both alike. Prints, per workload and end-to-end metric,
# each set's median, the relative gap between them, and the spread
# (interquartile range over the median) inside each set, as markdown.
# Exits non-zero when a gap or a spread exceeds the metric's bound in
# BENCHMARK.json (setup_s is held to its gap only, as by the driver).
#
#   bash bench/aa.sh [seeds-per-set, default 10] > bench/RESULTS.md
#   REPORT_ONLY=1 bash bench/aa.sh [n]    re-render the last run's log, bench/out/aa.jsonl
#
# Set A uses seeds 1..n, set B seeds 1001..1000+n: the driver compares
# medians over different seeds too. Ten seeds take about 35 minutes.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
n=${1:-10}
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
mkdir -p "$here/out"
log="$here/out/aa.jsonl"

one() { # set workload seed
  local lines
  lines=$(bash "$here/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -2)
  echo "{\"set\": \"$1\", \"workload\": \"$2\", \"info\": $(head -1 <<< "$lines"), \"result\": $(tail -1 <<< "$lines")}" >> "$log"
}

if [[ -z ${REPORT_ONLY:-} ]]; then
  : > "$log"
  for w in $(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))"); do
    for i in $(seq 1 "$n"); do
      if (( i % 2 )); then one A "$w" "$i"; one B "$w" $((1000 + i)); else one B "$w" $((1000 + i)); one A "$w" "$i"; fi
      echo "$w: pair $i of $n done" >&2
    done
  done
fi

python3 - "$root/BENCHMARK.json" "$log" "$n" <<'PY'
import json, statistics, subprocess, sys, platform

manifest = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
n = int(sys.argv[3])

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print("# A/A results: two sets of runs of the same code\n")
print(f"`bash bench/aa.sh {n}` — {n} seeds per set and workload, {manifest['run_seconds']} s per run, "
      f"{platform.machine()}, {subprocess.run(['nproc'], capture_output=True, text=True).stdout.strip()} processors, "
      f"{subprocess.run(['go', 'version'], capture_output=True, text=True).stdout.strip()}.\n")
print("gap = how much worse set B's median is than set A's, as a share of A's (negative: B is better); "
      "spread = interquartile range over the median within a set. Both must stay within the bound; "
      "`setup_s` is held to its gap only.\n")
failures = []
for w in manifest["workloads"]:
    name = w["name"]
    sets = {s: [r["result"] for r in runs if r["workload"] == name and r["set"] == s] for s in "AB"}
    wrong = sum(not r["correct"] for s in sets.values() for r in s)
    failed = sum(r["failed"] for s in sets.values() for r in s)
    attempted = sum(r["attempted"] for s in sets.values() for r in s)
    print(f"## {name}\n\n{len(sets['A'])} + {len(sets['B'])} runs, {wrong} incorrect; "
          f"{failed} of {attempted} steps failed.\n")
    print("| metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    if wrong:
        failures.append(f"{name}: {wrong} incorrect runs")
    for m in manifest["end_to_end"]:
        a = [r["metrics"][m["name"]]["value"] for r in sets["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = gap <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        steady = max(sa, sb) <= m["bound"] / 3 or m["name"] == "setup_s"
        verdict = "ok" if ok and steady else "ok (spread above a third of the bound)" if ok else "FAIL"
        if not ok:
            failures.append(f"{name} {m['name']}: gap {gap:+.1%}, spread {max(sa, sb):.1%}, bound {m['bound']:.0%}")
        print(f"| `{m['name']}` | {m['unit']} | {ma:.4g} | {mb:.4g} | {gap:+.1%} | {sa:.1%} | {sb:.1%} | {m['bound']:.0%} | {verdict} |")
    print()
if failures:
    print("## FAILED\n")
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print("Every gap and every spread is within its bound.")
PY
