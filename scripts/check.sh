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
echo "==> internal/comm: peer arithmetic only in tree.go, no os.Getenv, no parallel.SetWorkers"
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
# The root's last fold borrows parked learners' workers through
# parallel.ForWorkers' cap argument. A SetWorkers save/restore from a
# collective would interleave with the evaluation's own.
# shellcheck disable=SC2086
if grep -n 'parallel\.SetWorkers' $comm_src; then
    echo "FAIL: internal/comm swaps the process-wide worker budget"
    exit 1
fi
# One tree walk: up and down (dense.go) move every frame of every
# collective, dense or codec, and a reduction only says what a frame
# carries — the top edge's exchange on a wire is a case inside them.
# group.go holds the send and receive themselves; a receive or send
# anywhere else, or in another function of dense.go, is a second walk
# with its own order and its own pooled-frame discipline. The leg fails
# if it does not find both up and down (a rename drops one out).
echo "==> internal/comm: recvMsg/sendMsg only in group.go and in up/down of dense.go"
# shellcheck disable=SC2086
if grep -n 'recvMsg(\|sendMsg(' $comm_src | grep -v '^internal/comm/\(group\|dense\)\.go:'; then
    echo "FAIL: a tree walk outside up/down in internal/comm/dense.go"
    exit 1
fi
walk="$(awk '
    /^func / { on = /^func \(g \*Group\) (up|down)\(/; n += on }
    !on && /(recvMsg|sendMsg)\(/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
    /^}/ { on = 0 }
    END { if (n != 2) print "found " n " of the 2 functions the leg names" }' internal/comm/dense.go)"
if [ -n "$walk" ]; then
    printf '%s\n' "$walk"
    echo "FAIL: a send or receive in internal/comm/dense.go outside up and down, or up/down not found"
    exit 1
fi

# One telemetry plane: spans, the fleet view and the trace exporter live
# in internal/obs, and report formatting in internal/report. The two old
# packages, both named metrics, must not come back.
echo "==> no import of the retired metrics packages"
if grep -rn --include='*.go' 'sasgd/internal/obs/metrics\|sasgd/internal/metrics"' .; then
    echo "FAIL: a retired metrics package is imported"
    exit 1
fi

# One telemetry surface: a run reports through -trace and the end-of-run
# report. The live debug server (HTTP, expvar, pprof), the NDJSON event
# log and the metrics registry under them must not come back.
echo "==> no live debug server, event log or metrics registry"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    '"net/http|"expvar|ServeDebug|EventLog|SampleRing|NewRegistry|debug-addr|metrics-events' .; then
    echo "FAIL: the live debug server, the event log or the metrics registry is back"
    exit 1
fi

# Configuration comes from Config and flags. The environment only places
# a process (SASGD_TRANSPORT/RANK/PEERS, defaults of sasgd-train's
# -transport/-rank/-peers) and sizes the machine (SASGD_WORKERS); pin
# both the os.Getenv count in non-test Go outside bench/ and the names.
echo "==> os.Getenv sites in non-test Go outside bench/: at most 4"
getenv="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'os\.Getenv' . | wc -l)"
if [ "$getenv" -gt 4 ]; then
    grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'os\.Getenv' .
    echo "FAIL: $getenv os.Getenv lines, want at most 4"
    exit 1
fi
# Failures come back as errors: core.Run returns what a Config, a
# Problem or a file named in a Config can get wrong, and the panics
# that remain are programming errors. Pin their count in non-test Go
# outside bench/, so a new one has to take an old one's place.
echo "==> panic( sites in non-test Go outside bench/: at most 118"
panics="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'panic(' . | wc -l)"
if [ "$panics" -gt 118 ]; then
    echo "FAIL: $panics panic( lines, want at most 118"
    exit 1
fi
# Bytes off a socket are the peer's, not this program's: whatever they
# hold — a reset, a bad CRC, a misrouted frame — ends their link with a
# cause (runReader), never the process. No panic( in the functions those
# bytes reach: tcp.go's reader and wire's decoder. The leg fails if it
# finds fewer than the 13 functions it names (a rename drops one out).
echo "==> no panic( where socket bytes reach: tcp.go's reader, wire's decoder"
reached="$(awk '
    /^func / { on = /^func (\(t \*TCPTransport\) (runReader|readFrame)|\(fr \*fillReader\) Read|\(d \*Reader\) [A-Za-z]+|(BodyLen|PayloadWords|checkWords|DecodeBody|decodeBody|headerFields|midFrame))\(/; n += on }
    on && /panic\(/ { print FILENAME ":" FNR ": " $0 }
    /^}/ { on = 0 }
    END { if (n != 13) print "found " n " of the 13 functions the leg names" }' internal/comm/tcp.go internal/comm/wire/wire.go)"
if [ -n "$reached" ]; then
    printf '%s\n' "$reached"
    echo "FAIL: a panic( that bytes off a socket can reach, or a reader function the leg no longer finds"
    exit 1
fi
echo "==> SASGD_* names in non-test Go outside bench/: RANK, PEERS, TRANSPORT, WORKERS only"
if grep -rnoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'SASGD_[A-Z0-9_]+' . \
    | grep -vE ':SASGD_(RANK|PEERS|TRANSPORT|WORKERS)$'; then
    echo "FAIL: a SASGD_* variable beyond the deployment and worker-budget four"
    exit 1
fi

# One dense engine at one chunk per collective (or per bucket): the
# chunked, pipelined tree and its knobs must not come back.
echo "==> no chunked tree outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'ptree|PTree|CommChunk|ChunkWords|PipelineDepth|Chunked' .; then
    echo "FAIL: the chunked tree or one of its knobs is back"
    exit 1
fi

# Simulated time is one Transport decorator (internal/comm/sim.go): no
# frame, wire header or collective signature carries a clock, delayed
# launches need no sync mechanism of their own, and only the decorator
# keeps link drain times.
echo "==> simulated time only in the transport decorator"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'Arrive|sendMsgAt|DeferSync|SetDeferSync|setSink|remapCost|NullClock' .; then
    echo "FAIL: a clock is threaded through frames, the wire or the engines again"
    exit 1
fi
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'linkFree' . \
    | grep -v '^\./internal/comm/sim\.go:'; then
    echo "FAIL: link drain times kept outside internal/comm/sim.go"
    exit 1
fi

# One end-of-run report (core.WriteReport) renders the step
# decomposition, the traffic and the ranks for every driver. The
# renderers it replaced must not come back beside it.
echo "==> one end-of-run report: no second phase, overlap or traffic renderer"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'ProfileTable|OverlapFraction|func \([a-z]* ?\*?Stats\) String\(' .; then
    echo "FAIL: a renderer the end-of-run report replaced is back"
    exit 1
fi

# No message is ever lost: the transport is reliable FIFO and the fault
# plan names only slow ranks and crashes. The stop-and-wait link
# protocol, its knobs, counters and span must not come back.
echo "==> no retransmission protocol outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'linkDaemon|recvReliable|faultRoute|RetryTimeout|MaxRetries|Timeouts|PhaseRetry' .; then
    echo "FAIL: the fault plan's retransmission protocol is back"
    exit 1
fi

# A fault is a slow rank or a crash (SASGD is bulk-synchronous: nothing
# else changes a run). The message-fate plane — drops, bursts, delays,
# the per-link hash and seed behind them, their span, the simulator's
# extra-latency send and the fixed detection-penalty knob — must not
# come back.
echo "==> no message-fate fault plane outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'Bursts|DelayMean|DelayJitter|dropAttempt|delayFor|unitHash|splitmix64|PhaseDrop|sendAt|InjectFaults|SimEvictSecs' .; then
    echo "FAIL: the message-fate fault plane is back"
    exit 1
fi

# Recovery is restart: a crash ends the run with its error, and the
# survivors resume from the last boundary checkpoint. The in-process
# membership plane — the heartbeat ledger, its views and eviction
# timeout, the simulated detection penalty and its spans — must not come
# back (53 hits before it was deleted).
echo "==> no membership plane outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'Resilient|Await\(|EvictAfter|simEvictSecs|PhaseHeartbeat|PhaseReform' .; then
    echo "FAIL: the in-process membership plane is back"
    exit 1
fi

# One validation table, and it only shrinks: every composition it
# rejects is one a user can spell and no run honours. A new row is a
# composition that should have been made to work instead.
echo "==> configRules in internal/core/config.go: at most 11 rows"
rules="$(awk '/^var configRules/ { on = 1 } on && /^\t[{]"/ { n++ } on && /^}$/ { on = 0 } END { print n + 0 }' internal/core/config.go)"
if [ "$rules" -gt 11 ]; then
    echo "FAIL: $rules configRules rows, want at most 11"
    exit 1
fi

# The run's surface only shrinks too: a Config field or a sasgd-train
# flag is one more composition to validate, pin and document. A new one
# has to take an old one's place.
echo "==> Config fields in internal/core/config.go: at most 30"
fields="$(awk '/^type Config struct/ { on = 1; next } on && /^}/ { on = 0 } on && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n + 0 }' internal/core/config.go)"
if [ "$fields" -gt 30 ]; then
    echo "FAIL: $fields Config fields, want at most 30"
    exit 1
fi
echo "==> sasgd-train flags: at most 32"
flags="$(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/sasgd-train/main.go)"
if [ "$flags" -gt 32 ]; then
    echo "FAIL: $flags sasgd-train flags, want at most 32"
    exit 1
fi

# One boundary schedule for a given set of values: the boundary runs
# the exchange once the interval's last backward has finished.
# Backward-overlapped launches lost on the wall clock in every row
# measured (EXPERIMENTS.md, "-overlap verdict"); the knobs, the hook,
# its span and the simulator's per-layer stamps must not come back.
echo "==> no backward-overlapped aggregation outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'OverlapComm|CommBuckets|onLayerDone|BackwardDoneFractions|PhaseBucketBegin|BatchSpan|TracedOverlap' .; then
    echo "FAIL: backward-overlapped aggregation is back"
    exit 1
fi

# One exchange: the boundary engine's exchange runs every global
# exchange, on the learner or left in flight on the rank's comm.Runner,
# and a codec's per-layer buckets are a loop inside it. The per-bucket
# comm worker, its bucket plan and the per-layer backward hook that fed
# it must not come back.
echo "==> one exchange: no bucketed comm worker or per-layer backward hook outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'BucketedAllreduce|BeginCompressed|BeginHierInter|planBuckets|comm\.Segment|BackwardEach|StepEach' .; then
    echo "FAIL: the bucketed comm worker or the per-layer backward hook is back"
    exit 1
fi

# Two training loops: trainSASGD (sequential SGD is its p = 1 case) and
# trainAsync (Downpour and EAMSGD, each a local update and an exchange
# with the parameter server). A loop of its own for a baseline must not
# come back.
echo "==> two training loops: no per-baseline loop outside tests and bench/"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
    'trainSGD|trainDownpour|trainEAMSGD|trainHogwild' .; then
    echo "FAIL: a baseline has a training loop of its own again"
    exit 1
fi

# One control frame per boundary: adaptive T, adapt-k and the fleet
# frame decide from their summed slots of it, and its one collective
# runs in the boundary engine. A controller that allreduces on its own
# is a second collective per boundary again.
echo "==> controllers are pure: no AllreduceTree in schedule.go, compress.go, fleet.go"
if grep -n 'AllreduceTree' internal/core/schedule.go internal/core/compress.go internal/core/fleet.go; then
    echo "FAIL: a controller runs a collective of its own; the control frame is in boundary.go"
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

# Production code is what production calls: every exported name, and
# every unexported function, declared in a non-test file outside
# examples/, cmd/ and bench/ has a caller in non-test code of the module
# or of bench/ (exports_test.go type-checks both from source; a helper
# only tests call lives in a _test.go file). The race leg above covers
# only ./internal/..., so the root package's checker and its self-test
# run here by name.
echo "==> go test production-callers check"
run_tests -run 'ProductionCallers' .

# The generated-config harness is the safety net under the one SASGD
# loop: every accepted composition of boundary policies, checked for
# determinism, degenerate collapse and transport/tracer/metrics
# transparency, with every rejection named by the validation table. Its
# draws cross the comm runner, a crash's unwinding and real sockets, so
# it runs twice under the race detector (full draw count with FULL=1).
echo "==> go test -race -count=2 ${short} generated-config harness"
# shellcheck disable=SC2086
run_tests -race -count=2 ${short} -run 'GeneratedConfigs|ValidateRules' ./internal/core/

# Run's error path: a rejected Config, a bad Problem or checkpoint, a
# learner panic, a transport closed under the run or a wire link that
# ends (a peer killed or crashed, a corrupt or misrouted frame) must come back as
# Run's error — first cause first, every peer unwound, no goroutine left
# behind — and sasgd-train must turn it into exit 1. The unwinding races
# peers against the abort, so run it twice under the race detector.
echo "==> go test -race -count=2 Run's error path"
run_tests -race -count=2 -run 'RunRejects|RunErrors|LearnerPanic|ValidateRules|TCPLinkEnd|TwoProcessCrash' ./internal/core/ ./cmd/sasgd-train/ ./internal/comm/

# A fault plan is slow= and crash= only: sasgd-train refuses a spec with
# any other key (seed, drop, delay, burst, evict) with exit 2 naming the
# key, rather than training without it.
echo "==> sasgd-train refuses retired fault keys"
run_tests -run 'RetiredFaultKeys' ./cmd/sasgd-train/

# The harness relates runs of one build to each other; the golden pins
# relate this build to the commit they were captured on — final
# parameters, curve, words and messages as constants, over every
# boundary policy, the M=1 kernel shapes and both branches of the conv
# backward. Twice under the race
# detector: the pins cross the comm runner, a crash and its restart,
# and the evaluation's borrowed worker budget.
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

# The collectives' concurrency bugs are schedule-dependent, so
# give the race detector extra rounds over the stress/equivalence tests
# specifically (cheap: the comm package has no heavy kernels), together
# with the two tests that hold the one schedule: the table against the
# index arithmetic it replaced, and flat group ≡ one-island hierarchy ≡
# scattered island (bitwise, same words and messages). A parent writes
# the sum into its child's own buffer, so the ownership test and the
# channel ≡ TCP matrix (by-reference engine against pooled, bit for bit,
# sharded folds included) are exactly what the race detector should
# watch. The apply epilogue goes further — a parent writes its parked
# child's x′ — so its differential and the whole-run pin that holds the
# fused boundary to the materialised one ride the same leg.
echo "==> go test -race -count=2 comm schedule + stress/equivalence + ownership + tree apply"
run_tests -race -count=2 -run 'BinomialSchedule|HierSingleIslandBitwiseTree|Stress|Equivalent|DenseOwnership|CrossTransportAllreduceEquivalence|TreeApply|TopEdgeExchange' ./internal/comm/
run_tests -race -count=2 -run 'FusedApply' ./internal/core/

# Same treatment for the in-flight runner: the launch/wait lifecycle,
# the learner/runner handoff and the unwinding of a Wait on a closed
# transport are the schedule-sensitive surfaces, so run its tests and
# the pipelined stress twice under the race detector, and at core level
# the traced runs whose delayed launches cross that handoff.
echo "==> go test -race -count=2 runner lifecycle + stress, traced runs, end-of-run report"
run_tests -race -count=2 -run 'Runner|Pipelined' ./internal/comm/
# The report reads the span rings once the learners and runners have
# quiesced; the race detector holds it to that.
run_tests -race -count=2 -run 'Report|TraceExport|TraceDoesNotChange' ./internal/core/

# The compression engine's schedule-sensitive surface is the per-bucket
# codec collectives riding the same runner handoff: run the codec
# unit/equivalence tests (the selector's and the root re-selection's
# differentials against the sort reference included) and the core-level
# compressed runs twice under the race detector.
echo "==> go test -race -count=2 compression engine"
run_tests -race -count=2 -run 'Compress|Codec|TopK|QInt8|Selector|Resparsify|Sparsity' ./internal/comm/
run_tests -race -count=2 -run 'Compress|FaultyCompressed|Adaptive' ./internal/core/

# The communication-scheduling layer rides the same runner handoff
# with its own schedule-sensitive surfaces — the one-round
# delayed-application launch lifecycle, the hierarchical subset
# collectives sharing the group's mailboxes with in-flight launches,
# and the adaptive-T drift allreduce spliced between them — so run its
# equivalence, determinism and chaos legs twice under the race detector.
echo "==> go test -race -count=2 comm-schedule layer"
run_tests -race -count=2 -run 'Hier|Simulated' ./internal/comm/
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

# The telemetry plane's whole design is lock-free concurrent recording
# (per-track ring buffers and atomic per-phase totals written by p
# learners and their comm workers at once), so give its concurrent-track
# test the same extra race-detector rounds.
echo "==> go test -race -count=2 obs concurrent track writes"
run_tests -race -count=2 -run 'Concurrent' ./internal/obs/

# The asynchronous loop's schedule-sensitive surfaces: the virtual-time
# gate hands one step at a time across learner goroutines, and the
# parameter server's shards are written under their locks by every
# learner — Elastic writes the learner's own vector there too. Run the
# determinism, staleness and learning tests, and the server's exchange
# and concurrency tests, twice under the race detector.
echo "==> go test -race -count=2 asynchronous loop (virtual time, staleness, parameter server)"
run_tests -race -count=2 -run 'VirtualTime|AllAlgorithms|Staleness' ./internal/core/
run_tests -race -count=2 -run 'Elastic|Server' ./internal/comm/

# The straggler plan sets one rank's simulated slowdown from that rank's
# goroutine while the others charge their batches: the per-rank slot must
# exist before any learner starts (netsim.New), or this run races.
echo "==> go test -race -count=6 seeded straggler (netsim slowdown slots)"
run_tests -race -count=6 -run TestMetricsFlagsSeededStraggler ./internal/core

# The fault plane: the two-key plan grammar, and a crash that ends its
# run with the crashing rank's error on every boundary policy — the
# peers unwinding under concurrent learners.
echo "==> go test -race -count=2 fault plan + crash error"
run_tests -race -count=2 -run 'ParseFaultPlan' ./internal/comm/
run_tests -race -count=2 -run 'CrashEndsRun' ./internal/core/

# The chaos suite is the failure-handling gate: fault plans
# (stragglers and crashes at scheduled boundaries) with bitwise
# restart-equivalence assertions. A crash unwinds its peers while they
# are parked in a collective, so run it twice under the race detector.
echo "==> go test -race -count=2 chaos suite"
run_tests -race -count=2 ./internal/chaos/

# Native fuzzing smoke legs: a short randomized walk over the allreduce
# equivalence, top-k selection ≡ full sort on arbitrary bit patterns,
# and the wire frame decoder beyond the checked-in corpus. `go test
# -fuzz` takes one target at a time, so each is named.
echo "==> go fuzz smoke (10s per target)"
run_tests -fuzz 'FuzzAllreduceEquivalence' -fuzztime 10s -run 'Fuzz' ./internal/comm/
run_tests -fuzz 'FuzzTopKSelect' -fuzztime 10s -run 'Fuzz' ./internal/comm/
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
# held to the one-accumulator reference loop, and each AVX2 microkernel,
# row fold and dot8 to the Go kernel it replaces), and their parallelism runs
# through the sharding helpers, so give those determinism tests extra
# race-detector rounds.
echo "==> go test -race -count=2 GEMM determinism + fusion + packed/skinny/microkernel differentials"
# shellcheck disable=SC2086
run_tests -race -count=2 ${short} -run 'Bitwise|LinearForward|ConvGemm|ConvGradWeightRows|SkinnyShapes|FusedUpdateKernels|AVX2Microkernels|AVX2Folds|AVX2Dot8' ./internal/tensor/
run_tests -race -count=2 -run 'Fused|Conv2DBackwardDifferential|FirstLayerSkipsInputGradient' ./internal/nn/
run_tests -race -count=2 -run 'Aligned' ./internal/parallel/

# The epoch-edge evaluation runs its sample shards side by side on one
# shared model replica: an inference pass must write no layer state (the
# race detector holds concurrent Predict calls to that), and a curve must
# not move with the shard count.
echo "==> go test -race -count=2 split evaluation + stateless inference"
run_tests -race -count=2 -run 'ConcurrentPredict|InferenceForwardRetainsNothing' ./internal/nn/
run_tests -race -count=2 -run 'EvalShardsBitwise|RecorderAccuracy' ./internal/core/

# Steady-state allocation pins (the race detector's instrumentation
# allocates, so these only check out in a plain build): the runner's
# launch/wait cycle, dense and hierarchical rounds and full compressed
# rounds (top-k selection included) must stay zero-alloc on the pooled
# buffers and codec scratch, the
# disabled tracing path must stay nil-check-only free (the obs pin also
# covers the enabled record fast path), the packed GEMM entry points
# must run allocation-free off the pooled pack scratch, and the update
# path — Axpy, Copy, the fused kernels and the M=1 products — must take
# its closure-free serial branch under a budget of one worker.
echo "==> go test runner + dense + hier + codec zero-alloc pins"
run_tests -run 'SteadyStateAllocs' ./internal/comm/
# The top-k codec's microbenchmark (leaf and root at the NLC-F bucket
# shapes) runs one iteration per shape, so it cannot rot; a -bench
# pattern that matches nothing is not an error to go test, so the leg
# looks for its last row.
echo "==> top-k codec microbenchmark, one iteration per shape"
topk_bench="$(run_tests -run '^$' -bench 'TopkAllreduce' -benchtime 1x ./internal/comm/)" || {
    printf '%s\n' "$topk_bench"
    exit 1
}
printf '%s\n' "$topk_bench"
if ! grep -q '^BenchmarkTopkAllreduce/root/m=99831' <<<"$topk_bench"; then
    echo "FAIL: BenchmarkTopkAllreduce did not run every shape"
    exit 1
fi
echo "==> go test wire-codec + streaming-reader zero-alloc pins"
run_tests -run 'SteadyStateAllocs' ./internal/comm/wire/
echo "==> go test obs disabled-path zero-alloc pins (tracks + fleet)"
run_tests -run 'NilTrackIsSafeAndFree|EnabledRecordIsAllocFree|NilFleetIsSafeAndFree' ./internal/obs/
echo "==> go test tensor GEMM + update-path zero-alloc pins"
run_tests -run 'GemmSteadyStateAllocs|UpdatePathSteadyStateAllocs' ./internal/tensor/

# Bounds-check-elimination gate: the Go GEMM microkernels — the packed
# engine's reference kernels, and the ones that run wherever the AVX2
# assembly does not — are written in the len-conditioned slice-advance
# idiom precisely so the compiler can prove every index in bounds; a
# regression shows up as a check_bce diagnostic pointing into
# gemm_micro.go (gemm_micro_amd64.go and gemm_micro_generic.go hold
# panel sweeps and the row folds' and dot8's dispatch, not kernels, and
# do not match). The skinny kernels (gemm_skinny.go; its Go row folds
# and dot8Go are the reference the AVX2 ones are held to) cut their operands to a common
# length once per call — those slice checks (IsSliceInBounds) are the
# idiom — and index them by one range variable, so there the gate is on
# index checks (IsInBounds), which only a per-element check inside a
# loop can produce. Entry points that reach those kernels (matmul.go;
# MatMulAccTransBRows is one more) add no loop of their own, so the two
# files remain the whole gate. The -a forces a real compile (a cache hit
# would emit no diagnostics and pass vacuously).
echo "==> bounds-check-elimination gate (gemm_micro.go, gemm_skinny.go)"
bce_out="$(go build -a -o /dev/null \
    -gcflags='sasgd/internal/tensor=-d=ssa/check_bce/debug=1' \
    ./internal/tensor/ 2>&1)"
if printf '%s\n' "$bce_out" | grep -q 'gemm_micro\.go\|gemm_skinny\.go.*IsInBounds'; then
    printf '%s\n' "$bce_out" | grep 'gemm_micro\.go\|gemm_skinny\.go.*IsInBounds'
    echo "FAIL: bounds checks in the GEMM kernels"
    exit 1
fi

# The collective's own loops — the dense fold and the apply epilogue,
# the two Range bodies in internal/comm/dense.go — are memory-bound
# passes over the whole model and follow the skinny kernels' idiom: cut
# every operand to one length, index by one range variable. The walk
# around them indexes a rank's schedule or a child's held row once per
# frame; those checks are not loops, so the gate is IsInBounds inside
# the Range bodies only, and it fails if it finds fewer than the two.
echo "==> bounds-check-elimination gate (internal/comm/dense.go Range loops)"
ranges="$(awk '/^func \([a-z]+ \*[a-z]+\) Range\(/ { lo = NR } lo && /^}$/ { printf "%d-%d ", lo, NR; lo = 0 }' internal/comm/dense.go)"
if [ "$(printf '%s' "$ranges" | wc -w)" -lt 2 ]; then
    echo "FAIL: the dense fold and epilogue Range bodies are not where the gate looks"
    exit 1
fi
bce_out="$(go build -a -o /dev/null \
    -gcflags='sasgd/internal/comm=-d=ssa/check_bce/debug=1' \
    ./internal/comm/ 2>&1)"
bce_hits="$(printf '%s\n' "$bce_out" | awk -F: -v ranges="$ranges" '
    BEGIN { n = split(ranges, r, " ") }
    $1 ~ /dense\.go$/ && /IsInBounds/ {
        for (i = 1; i <= n; i++) {
            split(r[i], b, "-")
            if ($2 + 0 >= b[1] + 0 && $2 + 0 <= b[2] + 0) print
        }
    }')"
if [ -n "$bce_hits" ]; then
    printf '%s\n' "$bce_hits"
    echo "FAIL: bounds checks in the dense fold or apply loops"
    exit 1
fi

echo "OK"
