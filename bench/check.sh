#!/usr/bin/env bash
# The benchmark's own check, about a minute. bench/ is a module of its
# own, so the root module's `go build ./... && go test ./...` does not
# compile it: this script vets and tests it against the library as it
# is now. Then the chan ≡ TCP pin at benchmark scale: nlcf_dense_chan
# and nlcf_dense_tcp run the same arithmetic over two transports, so for
# the same seed their final parameters must hash equal; two full
# repetitions of each. Exits non-zero when vet or a test fails, the
# hashes differ or either run's output checks fail.
#
#   bash bench/check.sh [seed]
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
seed=${1:-1}

export GOCACHE="$here/../.bench_build/go-cache" GOTOOLCHAIN=local GOWORK=off
go -C "$here" vet ./...
go -C "$here" test ./...

hash_of() { # workload → "params_fnv64 correct"
  bash "$here/run.sh" --workload "$1" --seed "$seed" --seconds 1 --trace 0 | python3 -c '
import json, sys
info, result = [json.loads(line) for line in sys.stdin.read().strip().splitlines()[-2:]]
print(info["params_fnv64"], result["correct"])'
}

read -r chan_hash chan_ok < <(hash_of nlcf_dense_chan)
read -r tcp_hash tcp_ok < <(hash_of nlcf_dense_tcp)
echo "seed $seed: nlcf_dense_chan $chan_hash (correct=$chan_ok), nlcf_dense_tcp $tcp_hash (correct=$tcp_ok)"
if [[ $chan_ok != True || $tcp_ok != True ]]; then
  echo "FAIL: a run's own output checks failed" >&2
  exit 1
fi
if [[ $chan_hash != "$tcp_hash" ]]; then
  echo "FAIL: channel and TCP transports disagree on the final parameters" >&2
  exit 1
fi
echo "ok: channel ≡ TCP"
