package core

import (
	"fmt"

	"sasgd/internal/comm"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// The boundary engine: everything one SASGD learner does between the
// last local step of an interval and the first of the next. Algorithm 1
// is "allreduce gs, x′ ← x′ − γp·gs, x ← x′, gs ← 0"; Local SGD's
// communication period, DaSGD's delayed averaging, two-level
// aggregation, gradient codecs and checkpoints are all the same loop
// with a different policy at this one point, so they are stages of one
// pipeline rather than loops of their own. In order:
//
//	T-schedule → exchange → apply now-or-next → replica reset →
//	control frame → checkpoint
//
// No stage makes a pass over the model that nothing reads. gs is never
// cleared — the next interval's first local step overwrites it. At
// static T = 1 with no drift consumer an interval is one gradient, so gs
// is the gradient buffer itself and the next backward overwrites it; a
// replica there can never keep a local update, so (flat) it is its own
// reference and its reset copies nothing. All three follow from the
// local step's rule table (localStep in sasgd.go).
//
// One group, two rank spaces. Every boundary runs on the run's one
// comm.Group, and a learner's rank is its group rank: goroutine, clock,
// fault-plan entry and fleet-frame slot. Data ranks (Config.ResumeRanks,
// identity when not resuming) name the original run's shards and seed
// streams, so a survivors-only resume replays exactly the samples the
// survivors would have consumed, with the aggregation rate rescaled to
// γp·OrigP/p so the per-gradient step the original γp encoded is
// preserved when the sum spans fewer learners.
//
// Crashes. A fault plan's crash=R@B makes rank R's learner return its
// error at boundary B before it sends anything there; Run puts that
// error first and closes the group, which unwinds the peers. SASGD is
// bulk-synchronous, so every boundary checkpoint is a consistent cut:
// recovery is a second run resumed from the last one over the survivors
// (the chaos suite pins it bitwise).
//
// Checkpoint. After the reset every replica is the reference and gs is
// spent, so the whole optimizer state is x′ and a few counters: rank 0
// writes them (checkpoint.go).
//
// Exchange. One function, exchange, is every global exchange, run on
// the learner or left in flight: a codec runs its collective on each
// parameterized layer's bucket in descending index order (the codecs own
// the per-bucket schedule), a hierarchy its inter-island exchange and
// flat dense aggregation the tree, each over the whole buffer. Under a
// hierarchy every boundary runs the cheap intra-island allreduce — the island's working reference w moves at
// the island-local model-averaging rate γp·OrigP/q and the island
// aggregate accumulates into acc — and only every TOuter-th boundary
// exchanges acc across islands (leaders tree-allreduce + island
// fan-out, or a codec collective over the full group with non-leaders
// contributing zeros, so each island's aggregate is counted exactly
// once and a zero contribution leaves a zero error-feedback residual).
// The global reference absorbs the exchange at γp and w rebases onto
// it, so each gradient's total weight in the global model is exactly γp
// regardless of island sizes.
//
// Apply now-or-next. A flat, eager boundary applies inside the
// collective, bitwise the exchange and axpy every other path runs: a
// dense one in the tree walk (comm.AllreduceTreeApply, DESIGN §5), a
// codec's from the aggregate it holds (Compressor.AllreduceApply —
// top-k's k pairs instead of an m-word scatter and axpy). An AggHook
// reads the materialised aggregate, so it keeps the run — every
// boundary on every rank — on that path.
//
// DelayedApply (DaSGD) applies each global aggregate one global
// boundary late. The exchange is launched on the rank's comm.Runner and
// left in flight, hiding the whole transfer behind the next round's
// compute; it runs on its own simulated clock from the launch, which the
// learner's meets only at the drain (comm.Runner.Wait).
//
// Placement. The controllers share one collective per boundary, the
// control frame (control). The fabric matches messages by (from, to)
// alone, so one rule places it: the delayed launch goes out after the
// control frame and is drained before the next one — first thing at the
// next boundary, and before every epoch barrier. Draining touches only
// this rank's runner, so it needs no cross-rank alignment.
//
// One-round-shift invariant (delayed_test.go): the k-th aggregate a
// delayed run computes is bitwise the aggregate an eager run computes
// at its k-th boundary *given the same trajectory*; since delay alters
// the trajectory from the second boundary on, the pinned equalities are
// the first aggregate, the single-boundary run (bitwise equal to eager
// end to end), and AggHook origins arriving in order, each exactly one
// boundary late.
type engine struct {
	cfg     Config
	g       *comm.Group
	rank    int     // group rank: goroutine, clock, fault-plan and frame-slot index
	origP   int     // learner count γp was chosen for (the checkpoint's on resume)
	gp      float64 // γp·OrigP/p
	crashAt int     // boundary at which the fault plan kills this rank (-1 = never)
	tk      *obs.Track
	fc      *fleetCollector // nil = metrics off

	sched     tScheduler
	bidx      int   // boundaries completed
	dataRanks []int // rank → data rank (checkpoint header)

	grads []float64 // the network's gradient buffer
	gs    []float64 // the interval's gradient sum
	fresh bool      // gs holds nothing of the current interval: the next local step overwrites it
	gsIsG bool      // gs is the gradient buffer itself (static T = 1, no drift consumer)
	xref  []float64 // globally consistent reference x′
	fused bool      // the apply rides the exchange (flat, eager, no AggHook)

	// keepLocal: something reads the replica between an interval's last
	// local step and its reset — the adaptive T-scheduler's drift
	// statistic or the fleet frame — so that step's x ← x − γ·g must be
	// taken although the reset discards it (localStep). aliased is the
	// same fact at T = 1, where every step is an interval's last: no
	// local update ever survives, the replica never leaves the flat
	// reference, and xref is the replica's own memory (reset).
	keepLocal, aliased bool

	// Hierarchy (hier nil when HierGroups < 2).
	hier      *comm.Hier
	w         []float64 // island working reference
	acc       []float64 // island aggregate since the last outer exchange
	gpIsland  float64   // γp·OrigP/q for this rank's island of q members
	outerLeft int       // boundaries until the next outer exchange

	// Delayed application (run nil without it).
	run      *comm.Runner // carries the launch in flight across the interval
	pend     []float64    // the staged / in-flight / pending aggregate
	pendAt   int          // origin boundary of pend
	pending  bool         // pend awaits application
	inflight bool         // pend's launch has not been drained

	// Codec (comp nil for dense runs).
	comp  comm.Compressor
	segs  []nn.ParamSegment // the codec's buckets: one per parameterized layer
	res   []float64         // error-feedback residual
	ratio float64           // working top-k fraction
	adapt bool              // the adaptive-sparsity controller steers ratio (top-k only)

	ctl []float64 // the control frame's buffer, sized for every controller
}

// newCompressor builds a learner's codec. A variable so that the
// generated-config harness can put its conservation ledger around every
// codec of a run (gen_test.go).
var newCompressor = comm.NewCompressor

// newEngine builds one learner's boundary state on the run's group.
// params already holds the broadcast (or restored) parameters.
func newEngine(cfg Config, g *comm.Group, rank, origP int, net *nn.Network, tk *obs.Track, fc *fleetCollector) *engine {
	m := net.NumParams()
	e := &engine{
		cfg: cfg, g: g, rank: rank, origP: origP, tk: tk, fc: fc,
		gp:      cfg.GammaP,
		crashAt: cfg.Faults.CrashBoundary(rank),
		sched:   newTScheduler(cfg),
		fresh:   true,
		grads:   net.GradData(),
	}
	// A full group uses γp itself, not the rounded γp·p/p.
	if p := g.Size(); p != origP {
		e.gp = cfg.GammaP * float64(origP) / float64(p)
	}
	e.keepLocal = fc != nil || e.sched.adaptive
	// !keepLocal implies a static schedule, so Interval is T for good: an
	// interval is one step, and its gradient sum is its gradient. Under a
	// hierarchy the replica resets to w, not to xref.
	e.gsIsG = !e.keepLocal && cfg.Interval == 1
	e.gs = e.grads
	if !e.gsIsG {
		e.gs = make([]float64, m)
	}
	e.aliased = e.gsIsG && cfg.HierGroups < 2
	e.xref = net.ParamData()
	if !e.aliased {
		e.xref = append([]float64(nil), e.xref...)
	}
	// A model without parameters has nothing to exchange: the codec and
	// delayed application fall away with its layers.
	segs := net.ParamSegments()
	if cfg.HierGroups >= 2 {
		// γp·OrigP/q with γp = γ/p is γ/q — the rate at which an
		// island-only aggregation IS model averaging over the island's q
		// replicas, so w tracks the island mean between outer exchanges.
		e.hier = comm.NewHierOf(g, comm.BlockIslands(cfg.Learners, cfg.HierGroups))
		e.gpIsland = cfg.GammaP * float64(origP) / float64(e.hier.IslandSize(rank))
		e.w = append([]float64(nil), e.xref...)
		e.acc = make([]float64, m)
		e.outerLeft = cfg.TOuter
	}
	if cfg.Compress != "" && len(segs) > 0 {
		e.comp = newCompressor(cfg.Compress)
		e.segs = segs
		e.res = make([]float64, m)
		e.ratio = cfg.CompressK
		e.adapt = cfg.CompressAdapt && cfg.Compress == CodecTopK
		e.comp.NeedResid2(e.adapt || fc != nil) // adapt-k's capture, the fleet frame
	}
	e.ctl = make([]float64, 0, 4+obs.FrameWords*cfg.Learners)
	delayed := cfg.DelayedApply && len(segs) > 0
	if delayed || e.hier != nil {
		e.pend = make([]float64, m)
	}
	if delayed {
		e.run = comm.NewRunner(g, rank, e.exchange)
	}
	e.fused = e.hier == nil && !delayed && cfg.AggHook == nil
	return e
}

// boundary runs one communication boundary after local step `step`.
// params is the local replica (reset to its reference on return) and
// e.gs the interval's gradient sum (spent on return: the next local
// step, or where gs is g the next backward, overwrites it). It returns
// the error that must end the learner: its scheduled crash, or a
// checkpoint that could not be written.
func (e *engine) boundary(params []float64, step int) error {
	if e.bidx == e.crashAt {
		return fmt.Errorf("core: rank %d crashed at boundary %d (fault plan)", e.rank, e.bidx)
	}
	// The replica resets to w under a hierarchy, to x′ otherwise; the
	// fleet frame's drift is measured against it before any collective
	// (pure local reads).
	ref := e.xref
	if e.hier != nil {
		ref = e.w
	}
	e.fc.boundaryStart(params, ref)
	rank, tk := e.rank, e.tk

	// Exchange.
	global := true // flat: every boundary exchanges globally
	if e.hier != nil {
		e.drain()
		ws := tk.Begin()
		e.hier.AllreduceIntra(rank, e.gs)
		tk.End(obs.PhaseAggWait, ws)
		as := tk.Begin()
		tensor.Axpy(1, e.gs, e.acc)
		tensor.Axpy(-e.gpIsland, e.gs, e.w)
		tk.End(obs.PhaseAggApply, as)
		e.outerLeft--
		if global = e.outerLeft == 0; global {
			e.outerLeft = e.cfg.TOuter
		}
	}

	// Apply now-or-next. The agg_apply span opened here closes after the
	// replica reset and the control frame the controllers decide from, so
	// a flat eager boundary is exactly one agg_wait and one agg_apply.
	var as obs.Stamp
	applied, send := false, false
	switch {
	case !global:
		as = tk.Begin()
	case e.fused:
		ws := tk.Begin()
		if e.comp != nil {
			e.buckets(e.gs, e.xref, e.now(), tk)
		} else {
			e.g.AllreduceTreeApply(rank, e.gs, e.xref, -e.gp)
		}
		tk.End(obs.PhaseAggWait, ws)
		as = tk.Begin()
		applied = true
	case e.run != nil:
		e.drain()
		as = tk.Begin()
		if applied = e.pending; applied {
			e.applyGlobal(e.pendAt, e.pend)
		}
		e.stage()
		e.pendAt, e.pending, send = e.bidx, true, true
	default:
		buf := e.gs
		if e.hier != nil {
			e.stage()
			buf = e.pend
		}
		ws := tk.Begin()
		e.exchange(buf, e.now(), tk)
		tk.End(obs.PhaseAggWait, ws)
		as = tk.Begin()
		e.applyGlobal(e.bidx, buf)
		applied = true
	}
	if e.hier != nil && global {
		tensor.Copy(e.w, e.xref)
	}

	// The drift statistic where x̄ = ref exactly, then x ← ref. gs ← 0 is
	// not a pass of its own: the next interval's first local step writes
	// gs = 0 + g, or the next backward writes g (localStep).
	var d, r float64
	if e.sched.adaptive {
		d, r = drift(params, ref)
	}
	e.reset(params, ref)
	e.fresh = true
	e.control(d, r, applied)
	tk.End(obs.PhaseAggApply, as)

	if send {
		e.run.Launch(e.pend, e.now())
		e.inflight = true
	}
	e.bidx++
	return e.checkpoint(step)
}

// applyGlobal folds one completed global aggregate into the reference,
// x′ ← x′ − γp·agg, after showing it to AggHook under its origin
// boundary (dense aggregates only: a codec's output is not the
// gradient sum the hook's users compare).
func (e *engine) applyGlobal(origin int, agg []float64) {
	if e.cfg.AggHook != nil && e.rank == 0 && e.comp == nil {
		e.cfg.AggHook(origin, agg)
	}
	tensor.Axpy(-e.gp, agg, e.xref)
}

// stage moves the aggregate about to be exchanged into pend: gs on a
// flat boundary, and on an outer one the island aggregate acc, which is
// zeroed for the next round of boundaries to add into (gs is overwritten,
// not added into, by the next interval) — where a codec run's
// non-leaders contribute zeros, so each island is counted once.
func (e *engine) stage() {
	switch {
	case e.hier == nil:
		tensor.Copy(e.pend, e.gs)
		return
	case e.comp != nil && !e.hier.IsLeader(e.rank):
		clear(e.pend)
	default:
		tensor.Copy(e.pend, e.acc)
	}
	clear(e.acc)
}

// reset is x ← ref, the end of every boundary. An aliased replica is its
// own reference: the apply has already moved it and there is nothing to
// copy.
func (e *engine) reset(params, ref []float64) {
	if !e.aliased {
		tensor.Copy(params, ref)
	}
}

// exchange runs the boundary's global exchange over buf to completion:
// the codec's collective on each layer's bucket in descending index
// order, the inter-island exchange, or the tree. Every bucket's
// collective starts its simulated clock at ready, the learner's at the
// exchange, and the codecs record their compress spans on tk. It runs on
// the learner, or on the rank's Runner as a delayed launch.
func (e *engine) exchange(buf []float64, ready float64, tk *obs.Track) {
	switch {
	case e.comp != nil:
		e.buckets(buf, nil, ready, tk)
	case e.hier != nil:
		e.hier.AllreduceInter(e.rank, buf)
	default:
		e.g.AllreduceTree(e.rank, buf)
	}
}

// buckets runs the codec's collective on each layer's bucket of buf in
// descending index order, every one from the entry stamp ready. With x
// set each bucket's aggregate is applied, x ← x − γp·agg, where the codec
// holds it, and buf is spent.
func (e *engine) buckets(buf, x []float64, ready float64, tk *obs.Track) {
	for bi := len(e.segs) - 1; bi >= 0; bi-- {
		lo, hi := e.segs[bi].Off, e.segs[bi].Off+e.segs[bi].Len
		if x == nil {
			e.comp.Allreduce(e.g, e.rank, buf[lo:hi], e.res[lo:hi], e.ratio, ready, tk, int32(bi))
		} else {
			e.comp.AllreduceApply(e.g, e.rank, buf[lo:hi], e.res[lo:hi], x[lo:hi], -e.gp, e.ratio, ready, tk, int32(bi))
		}
	}
}

// now is the learner's simulated clock (0 unsimulated).
func (e *engine) now() float64 {
	if e.cfg.Sim == nil {
		return 0
	}
	return e.cfg.Sim.Clock(e.rank).Now()
}

// drain waits out an in-flight delayed launch. The aggregate stays
// pending — only the transfer is waited out.
func (e *engine) drain() {
	if !e.inflight {
		return
	}
	ws := e.tk.Begin()
	e.run.Wait()
	e.inflight = false
	e.tk.End(obs.PhaseAggWait, ws)
}

// flush applies a still-pending aggregate before the final evaluation
// and resets the replica to the resulting reference, leaving the run
// globally consistent. Local steps taken since the last boundary are
// discarded by the reset, exactly as a boundary discards them. Waiting
// on the rank's own runner involves no group collective, so per-rank
// timing is free to differ here.
func (e *engine) flush(params []float64) {
	e.drain()
	if !e.pending {
		return
	}
	as := e.tk.Begin()
	e.applyGlobal(e.pendAt, e.pend)
	e.pending = false
	ref := e.xref
	if e.hier != nil {
		tensor.Copy(e.w, e.xref)
		ref = e.w
	}
	e.reset(params, ref)
	e.tk.End(obs.PhaseAggApply, as)
}

// control runs the boundary's control frame. Every controller that is
// switched on writes its slots: the fleet frame's p slots first, then
// adaptive T's drift statistic [d, r], then — at a boundary that applied
// an aggregate — adapt-k's capture [sent², resid²]. One tree allreduce
// sums them (none when no controller has a slot), and each controller
// decides from its own summed slots, read back from the end. The tree
// folds every word in the same rank order whatever the frame's width,
// so no decision depends on which controllers share the frame.
func (e *engine) control(d, r float64, applied bool) {
	ctl := e.fc.encode(e.ctl[:0], e.comp)
	if e.sched.adaptive {
		ctl = append(ctl, d, r)
	}
	adapt := applied && e.adapt
	if adapt {
		sent2, resid2 := e.comp.TakeCapture()
		ctl = append(ctl, sent2, resid2)
	}
	if len(ctl) == 0 {
		return
	}
	e.g.AllreduceTree(e.rank, ctl)
	n := len(ctl)
	if adapt {
		e.ratio = nextRatio(e.ratio, e.cfg.CompressK, ctl[n-2], ctl[n-1])
		n -= 2
	}
	if e.sched.adaptive {
		e.sched.advance(ctl[n-2], ctl[n-1], e.g.Size())
	}
	e.fc.ingest(e.rank, ctl, e.sched.T())
}

// close stops the runner.
func (e *engine) close() {
	if e.run != nil {
		e.run.Close()
	}
}
