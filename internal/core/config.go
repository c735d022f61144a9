// Package core implements the paper's contribution and its baselines:
// SASGD (Algorithm 1 — bulk-synchronous SGD with a gradient-aggregation
// interval T and allreduce-based sparse aggregation), sequential SGD,
// and the paper's two asynchronous baselines, Downpour (asynchronous SGD
// through a sharded parameter server) and EAMSGD (elastic-averaging
// asynchronous SGD with momentum). Four algorithms run in two loops:
// trainSASGD is Algorithm 1, and sequential SGD is its degenerate case
// p = 1, T = 1, γp = γ; trainAsync runs Downpour and EAMSGD, which differ
// only in a learner's local update and its exchange with the parameter
// server. Both loops share the same learner harness, model replicas, data
// partitioning, epoch accounting, and optional fabric simulation, so
// measured differences come from the algorithms alone.
package core

import (
	"fmt"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
)

// Algorithm identifies one of the implemented training algorithms.
type Algorithm string

// The implemented algorithms.
const (
	AlgoSGD      Algorithm = "sgd"      // sequential baseline (p = 1)
	AlgoSASGD    Algorithm = "sasgd"    // the paper's Algorithm 1
	AlgoDownpour Algorithm = "downpour" // parameter-server ASGD (Dean et al.)
	AlgoEAMSGD   Algorithm = "eamsgd"   // elastic averaging ASGD (Zhang et al.)
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

	// Momentum is EAMSGD's local momentum μ. Zero selects the default
	// 0.3 (calibrated to the reduced-scale workloads; the original
	// paper's 0.9 assumes far smaller effective learning rates); any
	// negative value disables momentum.
	Momentum float64

	// Compress selects the gradient-compression codec for SASGD
	// aggregation: "" (dense — the paper's Algorithm 1), CodecTopK
	// (error-feedback top-k sparsification) or CodecQInt8 (int8
	// quantization with a shared per-bucket scale, residual-fed so it
	// composes with error feedback). Compressed aggregation always runs
	// one codec collective per parameterized layer; the codec brings its
	// own collective.
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
	// CodecTopK: after each aggregation, the learners sum the squared
	// norms of the sent and unsent gradient parts in the boundary's
	// control frame and grow or shrink the working fraction to hold the
	// globally captured gradient-mass share inside a target band (see
	// nextRatio in compress.go). Deterministic — every learner sees
	// identical global stats and applies the identical update. The final
	// fraction is reported in Result.CompressK.
	CompressAdapt bool

	// TSched selects the communication-period scheduler for SASGD (see
	// schedule.go): TSchedStatic — which "" means too — keeps T = Interval
	// (the paper's schedule); TSchedAdaptive starts at Interval and
	// widens/narrows the period from the replica-drift norm ‖x_i − x̄‖
	// summed in the boundary's control frame, in lockstep, so runs stay
	// deterministic.
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
	// aggregation.
	HierGroups int

	// TOuter is the number of communication boundaries between
	// cross-island exchanges when HierGroups ≥ 2 (default 4).
	TOuter int

	// DelayedApply applies each boundary's global aggregate one boundary
	// LATE (DaSGD): the exchange is launched on the rank's comm runner at
	// boundary k, left in flight, and its result applied at boundary
	// k+1, so the entire exchange hides behind the next round's compute.
	// It composes with every codec. The one-round shift changes the
	// trajectory
	// (the k-th aggregate reflects boundary k's gradients but lands at
	// k+1); a run with a single boundary, and the first aggregate of any
	// run, are bitwise identical to eager application. Under a
	// hierarchical schedule only the outer (cross-island) exchange is
	// delayed — the intra-island allreduce is cheap and stays eager.
	DelayedApply bool

	// VirtualTime serializes the asynchronous algorithms' learner steps
	// in virtual-clock order (see vtime.go), making Downpour and EAMSGD
	// runs deterministic — final parameters, curve, staleness and
	// simulated time — at the cost of scheduler realism. It has no effect
	// on SASGD and SGD, which are deterministic already.
	VirtualTime bool

	// Workers is the per-learner intra-op worker budget for the parallel
	// tensor kernels. Zero selects the automatic split ⌊W/p⌋ (at least
	// 1), where W is the process-wide budget from SASGD_WORKERS or
	// GOMAXPROCS, so p learners × w workers never oversubscribe the
	// machine. Parallel kernels are bitwise identical to serial ones, so
	// this setting affects wall-clock time only, never results.
	Workers int

	// EvalEvery records accuracy every this many collective epochs
	// (default 1). Evaluation itself is never charged to simulated time.
	EvalEvery int

	// Tracer, when non-nil, records per-learner phase spans (forward,
	// backward, local step, aggregation wait/apply) and
	// per-rank comm-worker spans into obs ring buffers, for Chrome-trace
	// export and the end-of-run report (WriteReport). It also attaches
	// to the comm group, enabling mailbox-wait and pipeline-occupancy
	// accounting in the group's Stats. Applies to Algorithm 1's loop
	// (SASGD, and SGD as its p = 1 case); nil (the default) keeps every
	// probe on its nil-check-only fast path. The spans are the run's only
	// clock: with Metrics on too, the fleet frame's compute and wall time
	// are read from the learner tracks.
	Tracer *obs.Tracer

	// Metrics turns on the fleet view: every aggregation boundary adds a
	// fixed-size fleet frame (p × obs.FrameWords words) to its control
	// frame, and rank 0 ingests it — effective T, replica-drift
	// RMS, per-rank compute and wall time, straggler anomalies, the
	// frame's words on the wire — into the view Run returns as
	// Result.Fleet. A rank's compute time is its learner track's forward +
	// backward span total, so a run without a Tracer gives its learners
	// private one-span tracks for it. The frame never touches gradient
	// state, so enabling metrics never changes training values:
	// FinalParams is bitwise identical with metrics on or off (simulated
	// times do shift — the frame's words are charged to the fabric like
	// any other traffic). Off (the default) keeps every probe on its
	// nil-check-only fast path. Algorithm 1's loop only (SASGD, and SGD as
	// its p = 1 case); the asynchronous algorithms ignore it.
	Metrics bool

	// Sim, when non-nil, attaches the fabric simulator: compute and
	// communication are charged to per-learner clocks and the result
	// carries simulated epoch times and compute/communication splits.
	Sim *netsim.Sim
	// FlopsPerSample is the paper-scale training cost per sample charged
	// to the simulator (ignored when Sim is nil).
	FlopsPerSample float64

	// Faults, when non-nil, injects the plan's failures into the run: a
	// slowed rank computes (and sleeps) longer, and a crashing rank's
	// learner returns its error at its boundary, which ends the run (Run
	// returns "learner r: …"). Recovery is a second run from the last
	// checkpoint, with ResumeFrom and ResumeRanks naming the survivors.
	// SASGD only; it composes with every other setting, a Transport that
	// hosts only some ranks included.
	Faults *comm.FaultPlan

	// CheckpointPath, when non-empty, makes the run write a training
	// checkpoint (reference parameters + step counters, see
	// checkpoint.go) atomically to this path at aggregation boundaries,
	// as the boundary's last stage: the process hosting rank 0 writes
	// it. Those are the
	// whole optimizer state only on a flat, eager, dense boundary, so it
	// composes with neither DelayedApply, HierGroups nor a codec.
	CheckpointPath string
	// CheckpointEvery writes the checkpoint every this many aggregation
	// boundaries (default 1 = every boundary).
	CheckpointEvery int
	// ResumeFrom, when non-empty, resumes a run from the named
	// checkpoint: parameters are restored, γp is taken from the
	// checkpoint, and each learner's sample stream is fast-forwarded to
	// the recorded step. The run must match the checkpoint's T, batch
	// size and seed. SASGD only, under CheckpointPath's restrictions;
	// the resumed run replays the uninterrupted one exactly when the
	// model's forward pass draws no randomness (no dropout).
	ResumeFrom string
	// ResumeRanks names which of the original run's data ranks
	// this run's learners play (strictly ascending, one per learner), for
	// resuming with only the survivors of a crash. Nil means all ranks,
	// requiring Learners == the checkpoint's OrigP.
	ResumeRanks []int

	// Transport, when non-nil, carries the run's frames instead of the
	// in-process channel fabric: comm.NewTCPLoopback, or a
	// comm.NewTCPTransport endpoint for multi-process training, where
	// every process runs the same Config, drives the ranks its Transport
	// reports Local, and the collectives meet on the wire (only rank 0's
	// process reports the curve and FinalParams; it writes the
	// checkpoint, and every process reads ResumeFrom). Its Size must
	// equal Learners. SASGD only. Run closes it only when a learner
	// fails, to unwind the others; otherwise closing it is the caller's
	// (Close is idempotent).
	Transport comm.Transport

	// AggHook, when non-nil, is called by rank 0 synchronously
	// once per dense GLOBAL aggregate — every boundary's allreduce on a
	// flat schedule, every outer exchange under HierGroups — right before
	// γp is applied, with the index of the boundary the aggregate
	// originated at (under DelayedApply that is the previous global
	// boundary, and the last one arrives from the final flush) and the
	// post-allreduce aggregated gradient. The hook must copy the slice if
	// it retains it. Test instrumentation — the chaos harness uses it to
	// compare aggregated gradients bitwise across fault-free and degraded
	// runs. Dense aggregation only; a codec's output is not a gradient sum
	// and is not shown. A hooked run materialises every aggregate.
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
	{"unknown algorithm (want sgd, sasgd, downpour or eamsgd)",
		func(c *Config) bool {
			switch c.Algo {
			case AlgoSGD, AlgoSASGD, AlgoDownpour, AlgoEAMSGD:
				return false
			}
			return true
		}},
	{"unknown compression codec (want topk, qint8 or none)",
		func(c *Config) bool { return c.Compress != "" && c.Compress != CodecTopK && c.Compress != CodecQInt8 }},
	{"CompressK must not be negative",
		func(c *Config) bool { return c.Compress == CodecTopK && c.CompressK < 0 }},
	{"unknown T-scheduler (want static or adaptive)",
		func(c *Config) bool { return c.TSched != TSchedStatic && c.TSched != TSchedAdaptive }},
	{"fault injection, checkpointing and resume are built on SASGD's aggregation boundaries: they need Algo sasgd",
		func(c *Config) bool {
			return (c.Faults != nil || c.CheckpointPath != "" || c.ResumeFrom != "") && c.Algo != AlgoSASGD
		}},
	{"an explicit Transport carries SASGD's collectives only: it needs Algo sasgd",
		func(c *Config) bool { return c.Transport != nil && c.Algo != AlgoSASGD }},
	{"the Transport must span exactly Learners ranks",
		func(c *Config) bool { return c.Transport != nil && c.Transport.Size() != c.Learners }},
	{"a Transport that hosts only some ranks does not compose with the fabric simulator (it keeps every rank's clock in process memory)",
		func(c *Config) bool { return c.Sim != nil && len(c.localRanks()) < c.Learners }},
	{"adaptive T, HierGroups, DelayedApply and compression are SASGD boundary policies: they need Algo sasgd",
		func(c *Config) bool {
			return (c.TSched == TSchedAdaptive || c.HierGroups >= 2 || c.DelayedApply || c.Compress != "") && c.Algo != AlgoSASGD
		}},
	// A boundary checkpoint holds x′ and counters only, so it relies on
	// x′ being the whole optimizer state: a pending delayed aggregate, a
	// mid-outer-round island reference and a codec's error-feedback
	// residual (and adapt-k's working fraction) are state it would lose.
	{"checkpointing composes with the T-scheduler but not with DelayedApply, HierGroups or a codec",
		func(c *Config) bool {
			return (c.CheckpointPath != "" || c.ResumeFrom != "") && (c.DelayedApply || c.HierGroups >= 2 || c.Compress != "")
		}},
}

// Validate reports the first rule of the validation table c breaks, or
// nil when Run accepts it; Run returns the same error. Commands call it
// before opening any file or socket the run needs, to tell a bad
// configuration apart from a run that failed.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// localRanks returns the learner ranks this process drives: the
// Transport's local ranks, or all Learners without one.
func (c Config) localRanks() []int {
	var local []int
	for r := 0; r < c.Learners; r++ {
		if c.Transport == nil || c.Transport.Local(r) {
			local = append(local, r)
		}
	}
	return local
}

// resolve fills defaulted fields, then checks the result against
// configRules. It reads nothing but c: the environment is not a second
// configuration surface.
func (c Config) resolve() (Config, error) {
	if c.Learners <= 0 {
		c.Learners = 1
	}
	if c.Interval <= 0 {
		c.Interval = 1
	}
	// Sequential SGD is Algorithm 1's degenerate case: at p = 1, T = 1 and
	// γp = γ the aggregate is the one gradient and the reference step is
	// x ← x − γ·g.
	if c.Algo == AlgoSGD {
		c.Learners, c.Interval, c.GammaP = 1, 1, c.Gamma
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
	// Momentum: zero selects the default; pass any negative value for
	// plain (momentum-free) local SGD.
	if c.Momentum == 0 {
		c.Momentum = 0.3
	}
	if c.Momentum < 0 {
		c.Momentum = 0
	}
	// Compression-codec normalization: "ship everything" degenerates to
	// the true dense path (bitwise identical to Algorithm 1).
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
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.TSched == "" {
		c.TSched = TSchedStatic
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
