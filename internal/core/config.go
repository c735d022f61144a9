// Package core implements the paper's contribution and its baselines:
// SASGD (Algorithm 1 — bulk-synchronous SGD with a gradient-aggregation
// interval T and allreduce-based sparse aggregation), sequential SGD,
// Downpour (asynchronous SGD through a sharded parameter server), and
// EAMSGD (elastic-averaging asynchronous SGD with momentum). All four
// share the same learner harness, model replicas, data partitioning,
// epoch accounting, and optional fabric simulation, so their measured
// differences come from the algorithms alone.
package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
	obsmetrics "sasgd/internal/obs/metrics"
)

// envOn reports whether an on/off environment default is set ("1" or
// "true"; anything else, including unset, leaves the Config zero value
// or the command flag in charge).
func envOn(name string) bool {
	s := os.Getenv(name)
	return s == "1" || s == "true"
}

// DefaultOverlap reports whether the SASGD_OVERLAP environment variable
// requests backward-overlapped aggregation by default, so the experiment
// drivers pick the knob up without plumbing.
func DefaultOverlap() bool { return envOn("SASGD_OVERLAP") }

// DefaultFastKernels reports whether the SASGD_FAST_KERNELS environment
// variable requests the reordered-summation fast kernels by default.
func DefaultFastKernels() bool { return envOn("SASGD_FAST_KERNELS") }

// DefaultCompress returns the gradient-compression codec and top-k
// fraction requested by the SASGD_COMPRESS environment variable —
// "topk", "topk:0.05" or "qint8"; empty (the default) leaves
// compression off, and a malformed fraction is ignored (the codec's
// default applies). Config resolution consults it when no codec was set
// explicitly, mirroring the -overlap/SASGD_OVERLAP precedence.
func DefaultCompress() (codec string, k float64) {
	codec, frac, ok := strings.Cut(os.Getenv("SASGD_COMPRESS"), ":")
	if ok {
		if v, err := strconv.ParseFloat(frac, 64); err == nil && v > 0 {
			k = v
		}
	}
	return codec, k
}

// DefaultSched returns the communication-schedule defaults requested by
// the SASGD_TSCHED, SASGD_HIER_GROUPS and SASGD_DELAYED environment
// variables: a T-scheduler mode ("static" or "adaptive"), a
// hierarchical group count, and whether the global gradient is applied
// one boundary late. Empty/unset leaves each Config zero value in
// charge, mirroring the SASGD_OVERLAP precedence.
func DefaultSched() (tsched string, hierGroups int, delayed bool) {
	if v, err := strconv.Atoi(os.Getenv("SASGD_HIER_GROUPS")); err == nil && v > 0 {
		hierGroups = v
	}
	return os.Getenv("SASGD_TSCHED"), hierGroups, envOn("SASGD_DELAYED")
}

// DefaultFaultSpec returns the fault-plan spec requested by the
// SASGD_FAULTS environment variable (comm.ParseFaultPlan grammar, e.g.
// "seed=1,drop=0.05,slow=2:4,crash=3@10"); empty (the default) leaves
// fault injection off. Commands consult it when their -faults flag is
// unset, mirroring the -trace/SASGD_TRACE precedence.
func DefaultFaultSpec() string { return os.Getenv("SASGD_FAULTS") }

// DefaultTransport returns the wire-transport defaults requested by the
// SASGD_TRANSPORT ("chan" or "tcp"), SASGD_RANK and SASGD_PEERS
// environment variables: the backend name, the single rank this
// process hosts (-1 = all ranks, TCP loopback), and the comma-separated
// rank→address list. Empty/unset leaves each command flag's zero value
// in charge, mirroring the -trace/SASGD_TRACE precedence.
func DefaultTransport() (transport string, rank int, peers string) {
	rank = -1
	if v, err := strconv.Atoi(os.Getenv("SASGD_RANK")); err == nil && v >= 0 {
		rank = v
	}
	return os.Getenv("SASGD_TRANSPORT"), rank, os.Getenv("SASGD_PEERS")
}

// DefaultMetrics reports whether the SASGD_METRICS environment variable
// requests a metrics registry by default. Commands consult it when their
// -metrics flag is unset, mirroring the -trace/SASGD_TRACE precedence.
func DefaultMetrics() bool { return envOn("SASGD_METRICS") }

// DefaultTracePath returns the Chrome-trace output path requested by
// the SASGD_TRACE environment variable: "1" or "true" select
// "trace.json", any other non-empty value is used as the path itself,
// and empty (the default) leaves tracing off. Commands consult it when
// their -trace flag is unset, mirroring the -overlap/SASGD_OVERLAP
// precedence.
func DefaultTracePath() string {
	if envOn("SASGD_TRACE") {
		return "trace.json"
	}
	return os.Getenv("SASGD_TRACE")
}

// Algorithm identifies one of the implemented training algorithms.
type Algorithm string

// The implemented algorithms.
const (
	AlgoSGD      Algorithm = "sgd"      // sequential baseline (p = 1)
	AlgoSASGD    Algorithm = "sasgd"    // the paper's Algorithm 1
	AlgoDownpour Algorithm = "downpour" // parameter-server ASGD (Dean et al.)
	AlgoEAMSGD   Algorithm = "eamsgd"   // elastic averaging ASGD (Zhang et al.)
	AlgoHogwild  Algorithm = "hogwild"  // lock-free shared-memory ASGD (Niu et al.)
)

// AllreduceAlgo selects the collective implementation SASGD aggregates
// with.
type AllreduceAlgo string

// The implemented allreduce algorithms: one binomial tree at two chunk
// sizes. "ptree" is bitwise identical to "tree" (same summation order,
// chunked wire schedule); what it changes is the simulated and real
// pipelining of the transfer.
const (
	AllreduceTree  AllreduceAlgo = "tree"  // binomial tree, one message per hop (paper's O(m log p))
	AllreducePTree AllreduceAlgo = "ptree" // the same tree, chunked and pipelined (CommChunk)
)

// Gradient-compression codec names for Config.Compress.
const (
	CodecTopK  = "topk"  // error-feedback top-k sparsification
	CodecQInt8 = "qint8" // int8 quantization with a shared per-bucket scale
)

// T-scheduler modes for Config.TSched (see schedule.go).
const (
	TSchedStatic   = "static"   // fixed T = Interval (the paper's schedule; "" means the same)
	TSchedAdaptive = "adaptive" // T widens/narrows in lockstep from the allreduced replica-drift norm
)

// Config parameterizes a training run. The field names follow the
// paper's notation (Table III): p learners, aggregation interval T,
// minibatch size M, local learning rate γ and global rate γp.
type Config struct {
	Algo     Algorithm
	Learners int     // p: number of learners
	Interval int     // T: local updates between aggregations
	Batch    int     // M: minibatch size
	Gamma    float64 // γ: local learning rate
	// GammaP is SASGD's global aggregation rate γp. Zero selects γ/p,
	// which makes the aggregation step exactly model averaging of the
	// local replicas (the heuristic the paper says Algorithm 1 simulates
	// with its "1/p" choice).
	GammaP float64
	Epochs int // collective passes over the training data
	Seed   int64

	// Parameter-server settings (Downpour, EAMSGD).
	Shards int // sharded-server shard count (default: min(8, p))

	// EAMSGD settings.
	Alpha float64 // elastic rate α (default 0.9/p, as in Zhang et al.)
	// Momentum is EAMSGD's local momentum μ. Zero selects the default
	// 0.3 (calibrated to the reduced-scale workloads; the original
	// paper's 0.9 assumes far smaller effective learning rates); any
	// negative value disables momentum.
	Momentum float64

	// SASGD collective selection (default tree).
	Allreduce AllreduceAlgo

	// CommChunk is the pipelined collective's chunk size in float64
	// words (AllreducePTree only). Zero selects comm.DefaultChunkWords
	// (8192).
	CommChunk int

	// OverlapComm asks for bucketed, backward-overlapped aggregation: on
	// the last minibatch of each interval, the gradient buffer is split
	// into CommBuckets contiguous buckets at layer boundaries and each
	// bucket's allreduce is launched the moment the backward pass has
	// finalized its layers' gradients, overlapping communication with the
	// remainder of backprop. It is a hint about the launch schedule, never
	// about values: results are bitwise identical with it on or off for
	// both dense collectives and for every compression codec (per-bucket
	// codec collectives are independent and deterministic). It composes
	// with either T-schedule. The hint cannot apply — and the boundary runs
	// its serial schedule — where the launch would be wrong rather than
	// merely early: under HierGroups or DelayedApply (what goes on the
	// wire is not this batch's gs) and under a fault plan, checkpoint or
	// resume (the launch would precede the boundary's membership sync and
	// alias its learner collectives). The SASGD_OVERLAP environment variable
	// ("1"/"true") turns it on by default for every run, which is how the
	// experiment drivers pick it up.
	OverlapComm bool

	// CommBuckets is the number of gradient buckets for OverlapComm:
	// per-layer segments are grouped into this many contiguous,
	// word-balanced buckets. Values ≤ 0 (or above the parameterized layer
	// count) select one bucket per parameterized layer.
	CommBuckets int

	// Compress selects the gradient-compression codec for SASGD
	// aggregation: "" (dense — the paper's Algorithm 1), CodecTopK
	// (error-feedback top-k sparsification) or CodecQInt8 (int8
	// quantization with a shared per-bucket scale, residual-fed so it
	// composes with error feedback). Compressed aggregation always runs
	// through the bucketed engine — each bucket's codec collective is
	// launched per bucket, composing with OverlapComm — and ignores
	// Allreduce (the codec brings its own collective). The
	// SASGD_COMPRESS environment variable ("topk", "topk:0.05",
	// "qint8") supplies the default when Compress is empty.
	Compress string

	// CompressK is the top-k sparsity fraction for CodecTopK: each
	// bucket ships its ⌊CompressK·len⌋ (at least 1) largest-magnitude
	// entries, and the unsent remainder accumulates in a per-learner
	// error-feedback residual that is folded back before the next
	// selection. Zero selects 0.05; values ≥ 1 ship everything, which
	// is dense aggregation and runs the true dense path (bitwise
	// identical to Compress == ""). Ignored by CodecQInt8.
	CompressK float64

	// CompressAdapt enables the adaptive-sparsity controller for
	// CodecTopK: after each aggregation, the learners allreduce the
	// squared norms of the sent and unsent gradient parts and grow or
	// shrink the working fraction to hold the globally captured
	// gradient-mass share inside a target band (see nextRatio in
	// compress.go). Deterministic — every learner sees identical global
	// stats and applies the identical update. The final fraction is
	// reported in Result.CompressK.
	CompressAdapt bool

	// TSched selects the communication-period scheduler for SASGD (see
	// schedule.go): TSchedStatic — which "" means too — keeps T = Interval
	// (the paper's schedule); TSchedAdaptive starts at Interval and
	// widens/narrows the period from the allreduced replica-drift norm
	// ‖x_i − x̄‖, in lockstep, so runs stay deterministic. The SASGD_TSCHED
	// environment variable supplies the default.
	TSched string

	// HierGroups ≥ 2 partitions the learners into that many contiguous
	// islands (comm.BlockIslands — matching netsim's switch islands) and
	// runs two-level aggregation: an intra-island allreduce at every
	// communication boundary, and the cross-island exchange only every
	// TOuter boundaries. Inside an island the reference moves at the
	// island-local model-averaging rate γp·p/q (q = island size); the
	// globally consistent reference absorbs every island's accumulated
	// aggregate at each outer exchange, so each gradient's final weight
	// in the global model is exactly γp. 0/1 (default) is flat
	// aggregation. The SASGD_HIER_GROUPS environment variable supplies
	// the default.
	HierGroups int

	// TOuter is the number of communication boundaries between
	// cross-island exchanges when HierGroups ≥ 2 (default 4).
	TOuter int

	// DelayedApply applies each boundary's global aggregate one boundary
	// LATE (DaSGD): the allreduce is launched through the bucketed comm
	// worker at boundary k and its result applied at boundary k+1, so
	// the entire exchange hides behind the next round's compute instead
	// of one backward pass (with a fault plan, checkpoint or resume the
	// exchange completes inside boundary k and only its application waits:
	// a launch in flight across a membership change would address a dead
	// group). The one-round shift changes the trajectory
	// (the k-th aggregate reflects boundary k's gradients but lands at
	// k+1); a run with a single boundary, and the first aggregate of any
	// run, are bitwise identical to eager application. Under a
	// hierarchical schedule only the outer (cross-island) exchange is
	// delayed — the intra-island allreduce is cheap and stays eager. The
	// SASGD_DELAYED environment variable ("1"/"true") supplies the
	// default.
	DelayedApply bool

	// VirtualTime serializes the asynchronous algorithms' learner steps
	// in virtual-clock order (see vtime.go), making Downpour, EAMSGD and
	// Hogwild runs deterministic at the cost of scheduler realism. It has
	// no effect on the bulk-synchronous algorithms, which are
	// deterministic already.
	VirtualTime bool

	// Workers is the per-learner intra-op worker budget for the parallel
	// tensor kernels. Zero selects the automatic split ⌊W/p⌋ (at least
	// 1), where W is the process-wide budget from SASGD_WORKERS or
	// GOMAXPROCS, so p learners × w workers never oversubscribe the
	// machine. Parallel kernels are bitwise identical to serial ones, so
	// this setting affects wall-clock time only, never results.
	Workers int

	// FastKernels selects the reordered-summation tensor kernels
	// (four-accumulator dot products) for the duration of the run. They
	// are value-equal to the default kernels within ≤1e-12 relative
	// tolerance but not bitwise identical to them, so runs flip this only
	// when throughput matters more than bit-stability against the
	// default-path reference results. Either setting is itself bitwise
	// reproducible across worker counts. The SASGD_FAST_KERNELS
	// environment variable ("1"/"true") turns it on by default.
	FastKernels bool

	// EvalEvery records accuracy every this many collective epochs
	// (default 1). Evaluation itself is never charged to simulated time.
	EvalEvery int

	// Tracer, when non-nil, records per-learner phase spans (forward,
	// backward, local step, bucket begins, aggregation wait/apply) and
	// per-rank comm-worker spans into obs ring buffers, for Chrome-trace
	// export and phase-latency profiles after the run. It also attaches
	// to the comm group, enabling mailbox-wait and pipeline-occupancy
	// accounting in the group's Stats. Applies to the collective
	// (SASGD/SGD) path; nil (the default) keeps every probe on its
	// nil-check-only fast path.
	Tracer *obs.Tracer

	// Metrics, when non-nil, attaches the time-series metrics registry
	// (internal/obs/metrics) to the run: learners record per-rank phase
	// latencies and boundary health frames, every aggregation boundary
	// piggybacks a fixed-size fleet frame on an extra allreduce over the
	// training group (traffic-pinned: boundaries × FrameTrafficWords(p)
	// words), and rank 0 ingests the fleet view — live ranks, effective
	// T, replica-drift RMS, compression capture, straggler anomalies —
	// into the registry's gauges, event log and anomaly detector. The
	// frame rides its own buffer, so enabling metrics never changes
	// training values: FinalParams is bitwise identical with metrics on
	// or off (simulated times do shift — the frame exchange is charged to
	// the fabric like any other traffic). Nil (the default) keeps every
	// probe on its nil-check-only fast path. SASGD collective paths only;
	// the other algorithms ignore it.
	Metrics *obsmetrics.Registry

	// Sim, when non-nil, attaches the fabric simulator: compute and
	// communication are charged to per-learner clocks and the result
	// carries simulated epoch times and compute/communication splits.
	Sim *netsim.Sim
	// FlopsPerSample is the paper-scale training cost per sample charged
	// to the simulator (ignored when Sim is nil).
	FlopsPerSample float64

	// Faults, when non-nil, injects the plan's failures (message drops,
	// link delays, learner slowdowns, crash schedules) into the run and
	// puts every SASGD sync point — aggregation boundaries and epoch
	// barriers — on a membership ledger: acknowledged point-to-point
	// delivery with timeout/retry, heartbeat-based straggler eviction,
	// survivor re-formation with γp rescaled by OrigP/live, and fault
	// counters in Result.Comm.Faults. SASGD only. It composes with both
	// T-schedules, with the codecs on flat eager boundaries, and with
	// dense HierGroups/DelayedApply (Validate names what it does not
	// compose with).
	Faults *comm.FaultPlan

	// CheckpointPath, when non-empty, makes the run write a training
	// checkpoint (reference parameters + step counters, see
	// checkpoint.go) atomically to this path at aggregation boundaries.
	CheckpointPath string
	// CheckpointEvery writes the checkpoint every this many aggregation
	// boundaries (default 1 = every boundary).
	CheckpointEvery int
	// ResumeFrom, when non-empty, resumes a run from the named
	// checkpoint: parameters are restored, γp is taken from the
	// checkpoint, and each learner's sample stream is fast-forwarded to
	// the recorded step. The run must match the checkpoint's T, batch
	// size and seed. SASGD only.
	ResumeFrom string
	// ResumeRanks names which of the original run's data-physical ranks
	// this run's learners play (strictly ascending, one per learner), for
	// resuming with only the survivors of a crash. Nil means all ranks,
	// requiring Learners == the checkpoint's OrigP.
	ResumeRanks []int

	// Transport, when non-nil, carries the run's point-to-point frames
	// instead of the default in-process channel fabric:
	// comm.NewTCPLoopback for socket-backed single-process runs, or a
	// comm.NewTCPTransport mesh endpoint for genuinely multi-process
	// training (see LocalRanks). Its Size must equal Learners. SASGD
	// collective paths only. Train leaves closing the transport to the
	// caller, with one exception: a run with a fault plan, checkpoint or
	// resume closes its mesh on exit through the membership layer, since re-formed views
	// share it. Transport Close is idempotent either way.
	Transport comm.Transport

	// LocalRanks names the learner ranks THIS process drives (strictly
	// ascending), for multi-process training over a partial Transport
	// mesh: every process runs the same Config apart from LocalRanks,
	// hosts only its own learners, and the collectives meet on the
	// wire. Nil (the default) drives all of them in-process. Requires
	// Transport; composes with neither the simulator (per-rank clocks
	// are shared memory) nor fault injection/checkpoint-resume (the
	// membership ledger is in-process). The accuracy curve and
	// FinalParams are recorded by rank 0, so only the process hosting
	// rank 0 reports them.
	LocalRanks []int

	// AggHook, when non-nil, is called by virtual rank 0 synchronously
	// once per dense GLOBAL aggregate — every boundary's allreduce on a
	// flat schedule, every outer exchange under HierGroups — right before
	// γp is applied, with the index of the boundary the aggregate
	// originated at (under DelayedApply that is the previous global
	// boundary, and the last one arrives from the final flush) and the
	// post-allreduce aggregated gradient. The hook must copy the slice if
	// it retains it. Test instrumentation — the chaos harness uses it to
	// compare aggregated gradients bitwise across fault-free and degraded
	// runs. Dense aggregation only; a codec's output is not a gradient sum
	// and is not shown.
	AggHook func(boundary int, gs []float64)
}

// configRules is the one validation table: every composition a Config
// can spell that no run could honour, with the reason the user reads.
// Each rule sees the config after resolve has filled the defaults. A
// composition missing from this table works and is pinned by the
// generated-config harness (gen_test.go).
var configRules = []struct {
	reason string
	broken func(c *Config) bool
}{
	{"the local learning rate Gamma must be positive",
		func(c *Config) bool { return !(c.Gamma > 0) }},
	{"unknown algorithm (want sgd, sasgd, downpour, eamsgd or hogwild)",
		func(c *Config) bool {
			switch c.Algo {
			case AlgoSGD, AlgoSASGD, AlgoDownpour, AlgoEAMSGD, AlgoHogwild:
				return false
			}
			return true
		}},
	{"unknown collective (want tree or ptree)",
		func(c *Config) bool { return c.Allreduce != AllreduceTree && c.Allreduce != AllreducePTree }},
	{"unknown compression codec (want topk, qint8 or none)",
		func(c *Config) bool { return c.Compress != "" && c.Compress != CodecTopK && c.Compress != CodecQInt8 }},
	{"CompressK must not be negative",
		func(c *Config) bool { return c.Compress == CodecTopK && c.CompressK < 0 }},
	{"unknown T-scheduler (want static or adaptive)",
		func(c *Config) bool { return c.TSched != TSchedStatic && c.TSched != TSchedAdaptive }},
	{"fault injection, checkpointing and resume are built on SASGD's aggregation boundaries: they need Algo sasgd",
		func(c *Config) bool { return c.membership() && c.Algo != AlgoSASGD }},
	{"an explicit Transport carries SASGD's collectives only: it needs Algo sasgd",
		func(c *Config) bool { return c.Transport != nil && c.Algo != AlgoSASGD }},
	{"the Transport must span exactly Learners ranks",
		func(c *Config) bool { return c.Transport != nil && c.Transport.Size() != c.Learners }},
	{"LocalRanks needs an explicit Transport (the omitted ranks live in other processes)",
		func(c *Config) bool { return len(c.LocalRanks) > 0 && c.Transport == nil }},
	{"LocalRanks composes with neither the fabric simulator nor fault injection/checkpointing (both keep per-rank state in process memory)",
		func(c *Config) bool { return len(c.LocalRanks) > 0 && (c.Sim != nil || c.membership()) }},
	{"LocalRanks must be strictly ascending ranks below Learners",
		func(c *Config) bool {
			prev := -1
			for _, r := range c.LocalRanks {
				if r <= prev || r >= c.Learners {
					return true
				}
				prev = r
			}
			return false
		}},
	{"adaptive T, HierGroups and DelayedApply are SASGD boundary policies: they need Algo sasgd",
		func(c *Config) bool {
			return (c.TSched == TSchedAdaptive || c.HierGroups >= 2 || c.DelayedApply) && c.Algo != AlgoSASGD
		}},
	// A boundary checkpoint relies on the replica == reference, gs == 0
	// invariant, which a pending delayed aggregate or a mid-outer-round
	// island reference breaks.
	{"checkpointing composes with the T-scheduler but not with DelayedApply or HierGroups",
		func(c *Config) bool {
			return (c.CheckpointPath != "" || c.ResumeFrom != "") && (c.DelayedApply || c.HierGroups >= 2)
		}},
	// The membership-aware hierarchical and delayed boundaries run dense.
	{"under fault injection, compression composes with the T-scheduler but not with DelayedApply or HierGroups",
		func(c *Config) bool {
			return c.Faults != nil && c.Compress != "" && (c.DelayedApply || c.HierGroups >= 2)
		}},
}

// membership reports whether the run's sync points go through the
// comm.Resilient ledger rather than a fixed group.
func (c *Config) membership() bool {
	return c.Faults != nil || c.CheckpointPath != "" || c.ResumeFrom != ""
}

// Validate reports the first rule of the validation table c breaks, or
// nil when Train accepts it. Commands call it before Train to turn user
// input into an error message instead of a panic.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// withDefaults is resolve for Train, whose signature has no error: an
// invalid config panics with Validate's error.
func (c Config) withDefaults() Config {
	c, err := c.resolve()
	if err != nil {
		panic(err)
	}
	return c
}

// resolve fills defaulted fields (environment defaults included), then
// checks the result against configRules.
func (c Config) resolve() (Config, error) {
	if c.Learners <= 0 || c.Algo == AlgoSGD {
		c.Learners = 1
	}
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.GammaP == 0 {
		c.GammaP = c.Gamma / float64(c.Learners)
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Shards <= 0 {
		c.Shards = c.Learners
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Alpha == 0 {
		c.Alpha = 0.9 / float64(c.Learners)
	}
	// Momentum: zero selects the default; pass any negative value for
	// plain (momentum-free) local SGD.
	if c.Momentum == 0 {
		c.Momentum = 0.3
	}
	if c.Momentum < 0 {
		c.Momentum = 0
	}
	if c.Allreduce == "" {
		c.Allreduce = AllreduceTree
	}
	// Compression-codec normalization: the SASGD_COMPRESS env supplies a
	// default when no codec was set, and "ship everything" degenerates to
	// the true dense path (bitwise identical to Algorithm 1).
	if c.Compress == "" {
		if codec, k := DefaultCompress(); codec != "" {
			c.Compress = codec
			if c.CompressK == 0 {
				c.CompressK = k
			}
		}
	}
	if c.Compress == "none" {
		c.Compress = ""
	}
	if c.Compress == CodecTopK {
		if c.CompressK == 0 {
			c.CompressK = 0.05
		}
		if c.CompressK >= 1 {
			c.Compress = ""
		}
	}
	if !c.OverlapComm && DefaultOverlap() {
		c.OverlapComm = true
	}
	if !c.FastKernels && DefaultFastKernels() {
		c.FastKernels = true
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	envT, envG, envD := DefaultSched()
	if c.TSched == "" {
		c.TSched = envT
	}
	if c.TSched == "" {
		c.TSched = TSchedStatic
	}
	if c.HierGroups == 0 {
		c.HierGroups = envG
	}
	if !c.DelayedApply && envD {
		c.DelayedApply = true
	}
	if c.HierGroups < 0 {
		c.HierGroups = 0
	}
	if c.HierGroups > c.Learners {
		c.HierGroups = c.Learners
	}
	if c.TOuter <= 0 {
		c.TOuter = 4
	}
	for _, r := range configRules {
		if r.broken(&c) {
			return c, fmt.Errorf("core: invalid config: %s", r.reason)
		}
	}
	return c, nil
}
