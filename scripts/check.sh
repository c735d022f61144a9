#!/bin/sh
# CI gate: vet + build + race-clean internal test suite.
#
#   scripts/check.sh        # fast local gate (race leg runs -short)
#   FULL=1 scripts/check.sh # CI mode: full race suite, no -short
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    printf '%s\n' "$unformatted"
    echo "FAIL: gofmt -l lists the files above"
    exit 1
fi

# internal/comm holds the binomial tree once, as data (tree.go): a walk
# that computes its own peers, or a collective that reads the
# environment, is a second copy of a decision that has one home.
echo "==> internal/comm: peer arithmetic only in tree.go, no os.Getenv"
comm_src="$(find internal/comm -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086
if grep -n '%(2\*step)' $comm_src | grep -v '^internal/comm/tree\.go:'; then
    echo "FAIL: the binomial walk is spelled out outside internal/comm/tree.go"
    exit 1
fi
# shellcheck disable=SC2086
if grep -n 'os\.Getenv' $comm_src; then
    echo "FAIL: internal/comm reads the environment"
    exit 1
fi

# The AVX2 microkernels promise the Go kernels' bits: a product rounded,
# then a sum rounded. A fused multiply-add rounds once, so not one may
# appear in the package's assembly (the comment lines of the file that
# say so are not instructions).
echo "==> internal/tensor/*.s: no fused multiply-add"
if grep -Hn 'VFN\?M\(ADD\|SUB\)' internal/tensor/*.s | grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; then
    echo "FAIL: fused multiply-add in the tensor assembly"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# bench/ is a module of its own (replace sasgd => ../), so the two legs
# above never compile it; vet and build it against the working tree so a
# change to a function its adapter calls fails here, not in the ledger.
echo "==> bench module: go vet + go build"
(cd bench && GOWORK=off go vet ./... && GOWORK=off go build -o /dev/null .)

# The wire codec picks its payload path from the host's byte order and
# every CI host is little-endian: cross-vet for a big-endian target so
# the per-word fallback keeps compiling.
echo "==> GOARCH=s390x go vet ./internal/comm/..."
GOARCH=s390x go vet ./internal/comm/...

# The packed GEMM has assembly microkernels on amd64 only, and every CI
# host is amd64: cross-vet for arm64 so the file set every other
# architecture builds (gemm_micro_generic.go in, the .s and its stubs
# out) keeps compiling.
echo "==> GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/"
GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/

short="-short"
if [ "${FULL:-0}" = "1" ]; then
    short=""
fi
echo "==> go test -race ${short} ./internal/..."
# shellcheck disable=SC2086
go test -race ${short} ./internal/...

# Every leg below selects tests by name, and `go test -run X` exits 0
# when X matches nothing — a renamed test would silently drop out of its
# leg. run_tests is `go test` that also fails on "[no tests to run]" (or
# a fuzz target that does not exist).
run_tests() {
    if ! out="$(go test "$@" 2>&1)"; then
        printf '%s\n' "$out"
        exit 1
    fi
    printf '%s\n' "$out"
    if printf '%s\n' "$out" | grep -q 'no tests to run\|no fuzz tests to fuzz'; then
        echo "FAIL: a pattern matched no test: go test $*"
        exit 1
    fi
}

# The generated-config harness is the safety net under the one SASGD
# loop: every accepted composition of boundary policies, checked for
# determinism, degenerate collapse and transport/tracer/metrics/overlap
# transparency, with every rejection named by the validation table. Its
# draws cross the comm worker, the membership ledger and real sockets, so
# it runs twice under the race detector (full draw count with FULL=1).
echo "==> go test -race -count=2 ${short} generated-config harness"
# shellcheck disable=SC2086
run_tests -race -count=2 ${short} -run 'GeneratedConfigs|ValidateRules' ./internal/core/

# The harness relates runs of one build to each other; the golden pins
# relate this build to the commit they were captured on — final
# parameters, curve, words and messages as constants, over every
# boundary policy, the M=1 kernel shapes and both branches of the conv
# backward. Twice under the race
# detector: the pins cross the comm worker, the membership ledger and
# the evaluation's borrowed worker budget.
echo "==> go test -race -count=2 golden output pins"
run_tests -race -count=2 -run 'GoldenPins' ./internal/core/

# -tags purego builds that same file set on this host, so the Go
# microkernels — the reference the assembly is tested against, and the
# engine everywhere but amd64 — run the whole tensor and nn suites and
# the golden pins. Fallback ≡ pins here and default build ≡ pins above,
# so assembly ≡ Go transitively at the scale of a training run, beside
# the kernel-level differential that compares them directly.
echo "==> go test -tags purego: tensor, nn, golden pins on the Go kernels"
run_tests -tags purego ./internal/tensor/ ./internal/nn/
run_tests -tags purego -run 'GoldenPins' ./internal/core/

# The pipelined collectives' concurrency bugs are schedule-dependent, so
# give the race detector extra rounds over the stress/equivalence tests
# specifically (cheap: the comm package has no heavy kernels), together
# with the two tests that hold the one schedule: the table against the
# index arithmetic it replaced, and flat group ≡ one-island hierarchy ≡
# scattered island (bitwise, same words and messages).
echo "==> go test -race -count=2 comm schedule + stress/equivalence"
run_tests -race -count=2 -run 'BinomialSchedule|HierSingleIslandBitwiseTree|Stress|Equivalent|Pipelines' ./internal/comm/

# Same treatment for the backward-overlapped bucketed aggregation: the
# async handle lifecycle and the learner/comm-worker handoff are the
# schedule-sensitive surfaces, so run their equivalence and stress tests
# twice under the race detector at both layers.
echo "==> go test -race -count=2 bucketed/overlap equivalence + stress"
run_tests -race -count=2 -run 'Bucketed|Overlap' ./internal/comm/
run_tests -race -count=2 -run 'Overlap' ./internal/core/

# The compression engine's schedule-sensitive surface is the per-bucket
# codec collectives riding the same async worker handoff: run the codec
# unit/equivalence tests (the selector's and the root re-selection's
# differentials against the sort reference included) and the core-level
# compressed-overlap sweep twice under the race detector.
echo "==> go test -race -count=2 compression engine"
run_tests -race -count=2 -run 'Compress|Codec|TopK|QInt8|Selector|Resparsify|Sparsity' ./internal/comm/
run_tests -race -count=2 -run 'Compress|FaultyCompressed|Adaptive' ./internal/core/

# The communication-scheduling layer rides the same async worker
# handoff with its own schedule-sensitive surfaces — the one-round
# delayed-application handle lifecycle, the hierarchical subset
# collectives sharing the group's mailboxes with in-flight worker ops,
# and the adaptive-T drift allreduce spliced between them — so run its
# equivalence, determinism and chaos legs twice under the race detector.
echo "==> go test -race -count=2 comm-schedule layer"
run_tests -race -count=2 -run 'Hier|DeferSync' ./internal/comm/
run_tests -race -count=2 -run 'Sched|Delayed|AdaptiveT|ChaosHier' ./internal/core/

# The wire-transport cut is the newest schedule-sensitive surface: per
# connection-endpoint writer/reader goroutines, pooled frame buffers
# crossing the socket boundary, idempotent group/transport teardown
# racing in-flight sends, and the cross-transport equivalence matrix
# that pins channel and TCP-loopback backends bitwise identical; the
# TCP pattern also takes in the sender-side write's ordering,
# back-pressure and Close-race tests. Run those legs twice under the
# race detector at both layers.
echo "==> go test -race -count=2 wire transport (channel vs TCP loopback)"
run_tests -race -count=2 -run 'CrossTransport|GroupClose|TCP|Wire|MultiProcess' ./internal/comm/
run_tests -race -count=2 -run 'TrainTCP|MultiEndpoint' ./internal/core/

# The tracing subsystem's whole design is lock-free concurrent recording
# (per-track ring buffers, atomic counters), so give its concurrency
# tests the same extra race-detector rounds.
echo "==> go test -race -count=2 obs concurrent tracing"
run_tests -race -count=2 -run 'Concurrent' ./internal/obs/

# The metrics registry makes the same promise one layer up: lock-free
# counters/gauges/histograms/rings written concurrently by p learners
# while exporters snapshot them, so its concurrency test gets the same
# extra rounds.
echo "==> go test -race -count=2 metrics registry concurrent writes"
run_tests -race -count=2 -run 'Concurrent' ./internal/obs/metrics/

# The straggler plan sets one rank's simulated slowdown from that rank's
# goroutine while the others charge their batches: the per-rank slot must
# exist before any learner starts (netsim.New), or this run races.
echo "==> go test -race -count=6 seeded straggler (netsim slowdown slots)"
run_tests -race -count=6 -run TestMetricsFlagsSeededStraggler ./internal/core

# The chaos suite is the failure-handling gate: seeded fault plans
# (stragglers, drops, crashes at scheduled boundaries) with bitwise
# survivor-equivalence assertions. Membership changes move virtual rank
# 0 across goroutines, so run it twice under the race detector.
echo "==> go test -race -count=2 chaos suite"
run_tests -race -count=2 ./internal/chaos/

# Native fuzzing smoke legs: a short randomized walk over the allreduce
# equivalence, top-k selection ≡ full sort on arbitrary bit patterns,
# and the bucket-plan invariants beyond the checked-in corpus. `go test
# -fuzz` takes one target at a time, so each is named.
echo "==> go fuzz smoke (10s per target)"
run_tests -fuzz 'FuzzAllreduceEquivalence' -fuzztime 10s -run 'Fuzz' ./internal/comm/
run_tests -fuzz 'FuzzTopKSelect' -fuzztime 10s -run 'Fuzz' ./internal/comm/
run_tests -fuzz 'FuzzPlanBuckets' -fuzztime 10s -run 'Fuzz' ./internal/core/
run_tests -fuzz 'FuzzFrameDecode' -fuzztime 10s -run 'Fuzz' ./internal/comm/wire/
run_tests -fuzz 'FuzzFrameRoundTrip' -fuzztime 10s -run 'Fuzz' ./internal/comm/wire/
run_tests -fuzz 'FuzzFrameStream' -fuzztime 10s -run 'Fuzz' ./internal/comm/wire/

# The GEMM tiers' whole contract is bitwise-identical results at any
# worker count (plus fused-epilogue equivalence to the unfused layers,
# and for the skinny tier and the fused update kernels equality with the
# plain reference loops on ±0/NaN/Inf/denormal operands; the conv
# backward's weight gradient rides MatMulAccTransBRows' two tiers through
# ConvGradWeightRows and is held to the loops it replaced, and a
# network's first layer to an unmarked twin; every packed entry point is
# held to the one-accumulator reference loop, and each AVX2 microkernel
# to the Go kernel it replaces), and their parallelism runs through the
# sharding helpers, so give those determinism tests extra race-detector
# rounds.
echo "==> go test -race -count=2 GEMM determinism + fusion + packed/skinny/microkernel differentials"
# shellcheck disable=SC2086
run_tests -race -count=2 ${short} -run 'Bitwise|FastKernels|LinearForward|ConvGemm|ConvGradWeightRows|SkinnyShapes|FusedUpdateKernels|AVX2Microkernels' ./internal/tensor/
run_tests -race -count=2 -run 'Fused|Conv2DBackwardDifferential|FirstLayerSkipsInputGradient' ./internal/nn/
run_tests -race -count=2 -run 'Aligned' ./internal/parallel/

# Steady-state allocation pins (the race detector's instrumentation
# allocates, so these only check out in a plain build): bucketed
# allreduce rounds and full compressed rounds (top-k selection included)
# must stay zero-alloc on the pooled buffers and codec scratch, the
# disabled tracing path must stay nil-check-only free (the obs pin also
# covers the enabled record fast path), the packed GEMM entry points
# must run allocation-free off the pooled pack scratch, and the update
# path — Axpy, Copy, the fused kernels and the M=1 products — must take
# its closure-free serial branch under a budget of one worker.
echo "==> go test bucketed + hier zero-alloc pins"
run_tests -run 'SteadyStateAllocs' ./internal/comm/
echo "==> go test wire-codec + streaming-reader zero-alloc pins"
run_tests -run 'SteadyStateAllocs' ./internal/comm/wire/
echo "==> go test obs disabled-path zero-alloc pin"
run_tests -run 'NilTrackIsSafeAndFree|EnabledRecordIsAllocFree' ./internal/obs/
echo "==> go test metrics disabled-path zero-alloc pin"
run_tests -run 'NilRegistryIsSafeAndFree|EnabledRecordIsAllocFree' ./internal/obs/metrics/
echo "==> go test tensor GEMM + update-path zero-alloc pins"
run_tests -run 'GemmSteadyStateAllocs|UpdatePathSteadyStateAllocs' ./internal/tensor/

# Bounds-check-elimination gate: the Go GEMM microkernels — the packed
# engine's reference kernels, and the ones that run wherever the AVX2
# assembly does not — are written in the len-conditioned slice-advance
# idiom precisely so the compiler can prove every index in bounds; a
# regression shows up as a check_bce diagnostic pointing into
# gemm_micro.go (gemm_micro_amd64.go and gemm_micro_generic.go hold
# panel sweeps, not kernels, and do not match). The skinny kernels
# (gemm_skinny.go) cut their operands to a common length once per call —
# those slice checks (IsSliceInBounds) are the idiom — and index them by
# one range variable, so there the gate is on index checks (IsInBounds),
# which only a per-element check inside a loop can produce. Entry points
# that reach those kernels (matmul.go; MatMulAccTransBRows is one more)
# add no loop of their own, so the two files remain the whole gate. The
# -a forces a real compile (a cache hit would emit no diagnostics and
# pass vacuously).
echo "==> bounds-check-elimination gate (gemm_micro.go, gemm_skinny.go)"
bce_out="$(go build -a -o /dev/null \
    -gcflags='sasgd/internal/tensor=-d=ssa/check_bce/debug=1' \
    ./internal/tensor/ 2>&1)"
if printf '%s\n' "$bce_out" | grep -q 'gemm_micro\.go\|gemm_skinny\.go.*IsInBounds'; then
    printf '%s\n' "$bce_out" | grep 'gemm_micro\.go\|gemm_skinny\.go.*IsInBounds'
    echo "FAIL: bounds checks in the GEMM kernels"
    exit 1
fi

echo "OK"
