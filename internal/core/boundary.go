package core

import (
	"sasgd/internal/comm"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// The boundary engine: everything one SASGD learner does between the
// last local step of an interval and the first of the next. Algorithm 1
// is "allreduce gs, x′ ← x′ − γp·gs, x ← x′, gs ← 0"; Local SGD's
// communication period, DaSGD's delayed averaging, two-level
// aggregation, gradient codecs and crash tolerance are all the same
// loop with a different policy at this one point, so they are stages of
// one pipeline rather than loops of their own. In order:
//
//	membership view → T-schedule → exchange → apply now-or-next →
//	drift step → replica reset → adapt-k → fleet frame → checkpoint
//
// No stage makes a pass over the model that nothing reads. gs is never
// cleared — the next interval's first local step overwrites it — and a
// replica whose local updates can never survive a boundary (static
// T = 1, no drift consumer, flat) is its own reference, so its reset
// copies nothing; both follow from the local step's rule table
// (localStep in sasgd.go).
//
// Membership view. A run without a fault plan, checkpoint or resume has
// a constant comm.View over its group and this stage costs nothing — no
// lock, no barrier. Otherwise every boundary (and every epoch barrier)
// is a comm.Resilient sync point: the learner posts its heartbeat, waits
// for the live set, and continues on whatever view comes back, with the
// aggregation rate rescaled to γp·OrigP/|view| so the per-gradient step
// the original γp encoded is preserved when the sum spans fewer
// learners. Two rank spaces keep resume orthogonal to fault handling:
// run-physical ranks 0..p−1 name this run's goroutines, clocks and
// fault-plan entries, while data-physical ranks (Config.ResumeRanks,
// identity when not resuming) name the original run's shards and seed
// streams — so a survivors-only resume replays exactly the samples the
// survivors would have consumed, which is what makes a degraded run
// bitwise-comparable to a fault-free resume over the survivors (the
// chaos harness's core assertion).
//
// Exchange. Flat dense aggregation calls the configured collective on
// gs directly. Everything else goes through the rank's bucketed comm
// worker, one op per bucket in descending index order: every codec
// collective (the codecs own the per-bucket schedule), every launch
// that must outlive the boundary, and the backward-overlapped launches
// of overlap.go. Under a hierarchy every boundary runs the cheap
// intra-island allreduce — the island's working reference w moves at
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
// Apply now-or-next. DelayedApply (DaSGD) applies each global aggregate
// one global boundary late. On a fixed membership the exchange is
// launched through the worker and left in flight, hiding the whole
// transfer behind the next round's compute; its simulated arrival times
// are captured in a comm.DeferSync and folded in when the launch is
// drained (the worker's syncs would otherwise race the learner's
// compute advances, and Sync/Advance do not commute). On a membership
// plane only the APPLICATION is deferred — the exchange completes
// inside its boundary, because a launch left in flight across a view
// change would address a dead group — and the rate is frozen at
// exchange time, since the view may shrink before the aggregate lands.
//
// Mailbox aliasing. The fabric matches messages by (from, to) alone, so
// an in-flight launch must finish before ANY learner-driven collective
// reuses the mailboxes. That fixes where things sit: a delayed launch
// goes out last, after the boundary's drift allreduce, adapt-k
// allreduce and fleet frame; it is drained first thing at the next
// boundary that runs a learner collective (every boundary — under a
// hierarchy that bounds the hiding window to one inner interval while
// the APPLICATION still waits for the next outer boundary) and before
// every epoch barrier. Draining touches only this rank's handles, so it
// needs no cross-rank alignment.
//
// One-round-shift invariant (delayed_test.go): the k-th aggregate a
// delayed run computes is bitwise the aggregate an eager run computes
// at its k-th boundary *given the same trajectory*; since delay alters
// the trajectory from the second boundary on, the pinned equalities are
// the first aggregate, the single-boundary run (bitwise equal to eager
// end to end), and AggHook origins arriving in order, each exactly one
// boundary late.
//
// View change under a hierarchy. Islands are defined on run-physical
// ranks (the topology does not change when a rank dies) and
// re-partitioned over the survivors. Every applied gradient is carried
// by some island's w, so averaging the survivors' w IS the global mean
// model: the global reference rebases onto that average, and the
// un-exchanged island accumulator and any pending outer aggregate —
// whose gradients w already carries island-locally — are dropped.
type engine struct {
	cfg   Config
	rank  int // run-physical rank: goroutine, clock, fault-plan and frame-slot index
	origP int // learner count γp was chosen for (the checkpoint's on resume)
	tk    *obs.Track
	fc    *fleetCollector // nil = metrics off

	// Membership view.
	mem     *comm.Resilient // nil = fixed membership
	view    comm.View
	vr      int     // this learner's virtual rank in view
	built   int     // view version the hierarchy and worker were built on
	syncPt  int     // next membership sync point
	gp      float64 // γp·OrigP/|view|
	crashAt int     // boundary at which the fault plan kills this rank (-1 = never)

	sched     tScheduler
	bidx      int   // boundaries completed
	dataRanks []int // run-physical → data-physical rank (checkpoint header)

	gs    []float64 // the interval's gradient sum
	fresh bool      // gs holds nothing of the current interval: the next local step overwrites it
	xref  []float64 // globally consistent reference x′

	// keepLocal: something reads the replica between an interval's last
	// local step and its reset — the adaptive T-scheduler's drift
	// statistic or the fleet gauge — so that step's x ← x − γ·g must be
	// taken although the reset discards it (localStep). aliased is the
	// same fact at T = 1, where every step is an interval's last: no
	// local update ever survives, the replica never leaves the flat
	// reference, and xref is the replica's own memory (reset).
	keepLocal, aliased bool

	// Hierarchy (hier nil when HierGroups < 2).
	baseIsl   []int // run-physical rank → island
	hier      *comm.Hier
	w         []float64 // island working reference
	acc       []float64 // island aggregate since the last outer exchange
	gpIsland  float64   // γp·OrigP/q for this rank's island of q live members
	outerLeft int       // boundaries until the next outer exchange
	hchunk    int       // chunk size of the hierarchical sub-collectives

	// Bucketed worker (b nil when nothing needs it).
	segs    []comm.Segment
	b       *comm.BucketedAllreduce
	handles []comm.Handle
	chunk   int

	// Delayed application.
	delayed  bool
	async    bool // delayed launches stay in flight across the interval (fixed membership)
	dsync    *comm.DeferSync
	pend     []float64 // the staged / in-flight / pending aggregate
	pendG    float64   // rate frozen when pend was staged
	pendAt   int       // origin boundary of pend
	pending  bool      // pend awaits application
	inflight bool      // pend's launch has not been drained

	// Codec (comp nil for dense runs).
	comp     comm.Compressor
	res      []float64 // error-feedback residual
	ratio    float64   // working top-k fraction
	adaptBuf [2]float64

	// Backward-overlapped launch (overlap.go).
	overlap   bool
	bucketAt  []int     // layer → bucket its backward completion finalizes, or -1
	fracs     []float64 // layer → fraction of the batch's simulated span at completion
	grads     []float64
	start, dt float64 // the boundary batch's simulated span
}

// newCompressor builds a learner's codec. A variable so that the
// generated-config harness can put its conservation ledger around every
// codec of a run (gen_test.go).
var newCompressor = comm.NewCompressor

// newEngine builds one learner's boundary state on the initial view.
// params already holds the broadcast (or restored) parameters.
func newEngine(cfg Config, mem *comm.Resilient, view comm.View, rank, origP int, net *nn.Network, tk *obs.Track, fc *fleetCollector) *engine {
	m := net.NumParams()
	e := &engine{
		cfg: cfg, rank: rank, origP: origP, tk: tk, fc: fc, mem: mem,
		crashAt: cfg.Faults.CrashBoundary(rank),
		sched:   newTScheduler(cfg),
		gs:      make([]float64, m),
		fresh:   true,
		grads:   net.GradData(),
		built:   view.Version,
	}
	e.keepLocal = fc != nil || e.sched.adaptive
	// !keepLocal implies a static schedule, so Interval is T for good;
	// under a hierarchy the replica resets to w, not to xref.
	e.aliased = !e.keepLocal && cfg.Interval == 1 && cfg.HierGroups < 2
	e.xref = net.ParamData()
	if !e.aliased {
		e.xref = append([]float64(nil), e.xref...)
	}
	e.setView(view)
	// The bucket plan exists only for the policies that go through the
	// comm worker; a model without parameters has nothing to bucket, and
	// those policies then fall away with the plan.
	var minLayer []int
	if cfg.Compress != "" || cfg.DelayedApply || cfg.OverlapComm {
		if psegs := net.ParamSegments(); len(psegs) > 0 {
			e.segs, minLayer = planBuckets(psegs, cfg.CommBuckets)
		}
	}
	e.chunk, e.hchunk = cfg.CommChunk, cfg.CommChunk
	if cfg.Allreduce != AllreducePTree {
		// The monolithic tree is the chunked tree with one chunk per bucket
		// (or per whole-buffer sub-collective): bitwise identical either
		// way, and this matches its unchunked wire schedule.
		for _, s := range e.segs {
			if s.Len > e.chunk {
				e.chunk = s.Len
			}
		}
		e.hchunk = m
	}
	if cfg.HierGroups >= 2 {
		e.baseIsl = comm.BlockIslands(cfg.Learners, cfg.HierGroups)
		e.w = append([]float64(nil), e.xref...)
		e.acc = make([]float64, m)
		e.outerLeft = cfg.TOuter
		e.setHier()
	}
	if cfg.Compress != "" && len(e.segs) > 0 {
		e.comp = newCompressor(cfg.Compress)
		e.res = make([]float64, m)
		e.ratio = cfg.CompressK
	}
	e.delayed = cfg.DelayedApply && len(e.segs) > 0
	if e.delayed || e.hier != nil {
		e.pend = make([]float64, m)
	}
	e.async = e.delayed && mem == nil
	// The hint applies where a launch from inside backward is legal: a
	// flat eager boundary (the exchange IS gs, and nothing is deferred) on
	// a fixed membership (the launch would precede the membership sync).
	e.overlap = cfg.OverlapComm && e.hier == nil && !e.delayed && mem == nil && len(e.segs) > 0
	if e.comp != nil || e.async || e.overlap {
		e.b = comm.NewBucketedAllreduce(view.G, e.vr, e.segs, 0)
		e.handles = make([]comm.Handle, len(e.segs))
	}
	if e.async {
		e.dsync = &comm.DeferSync{}
		e.b.SetDeferSync(e.dsync)
	}
	if e.overlap {
		e.bucketAt = make([]int, len(net.Layers()))
		for i := range e.bucketAt {
			e.bucketAt[i] = -1
		}
		for b, l := range minLayer {
			e.bucketAt[l] = b
		}
		if cfg.Sim != nil {
			e.fracs = model.BackwardDoneFractions(net)
		}
	}
	return e
}

// setView adopts a membership view: the learner's virtual rank in it and
// the aggregation rate γp·OrigP/|view|. A full view uses γp itself, not
// the rounded γp·p/p.
func (e *engine) setView(v comm.View) {
	e.view, e.vr = v, v.RankOf(e.rank)
	e.gp = e.cfg.GammaP
	if v.Size() != e.origP {
		e.gp = e.cfg.GammaP * float64(e.origP) / float64(v.Size())
	}
}

// setHier partitions the current view by the members' run-physical
// islands: survivors regroup with their physical neighbors and emptied
// islands disappear (NewHierOf normalizes island ids by first
// appearance). γp·OrigP/q with γp = γ/p is γ/q — the rate at which an
// island-only aggregation IS model averaging over the island's q live
// replicas, so w tracks the island mean between outer exchanges.
func (e *engine) setHier() {
	isl := make([]int, e.view.Size())
	for vr, pr := range e.view.Phys {
		isl[vr] = e.baseIsl[pr]
	}
	e.hier = comm.NewHierOf(e.view.G, isl)
	e.gpIsland = e.cfg.GammaP * float64(e.origP) / float64(e.hier.IslandSize(e.vr))
}

// await is one membership sync point. False means this learner has been
// fenced (evicted as a presumed-dead straggler) and must stop
// participating immediately.
func (e *engine) await() bool {
	v, ok := e.mem.Await(e.rank, e.syncPt)
	e.syncPt++
	if ok {
		e.setView(v)
	}
	return ok
}

// barrier is the epoch-edge synchronization: the group barrier on a
// fixed membership, a sync point otherwise.
func (e *engine) barrier() bool {
	if e.mem == nil {
		e.view.G.Barrier(e.vr)
		return true
	}
	return e.await()
}

// reform rebuilds what was built on the previous view: the island
// ledgers are globalized (see the type comment) and re-partitioned, and
// the comm worker — idle, every handle was waited out inside its
// boundary — is restarted on the new group.
func (e *engine) reform() {
	if e.hier != nil {
		e.view.G.AllreduceTree(e.vr, e.w)
		inv := 1.0 / float64(e.view.Size())
		for i := range e.w {
			e.w[i] *= inv
		}
		copy(e.xref, e.w)
		clear(e.acc)
		e.pending = false
		e.outerLeft = e.cfg.TOuter
		e.setHier()
	}
	if e.b != nil {
		e.b.Close()
		e.b = comm.NewBucketedAllreduce(e.view.G, e.vr, e.segs, 0)
	}
	e.built = e.view.Version
}

// boundary runs one communication boundary after local step `step`.
// params is the local replica (reset to its reference on return) and
// e.gs the interval's gradient sum (spent on return: the next local step
// overwrites it); launched says the overlap hook already submitted gs
// bucket by bucket. False means the learner must stop: crashed on
// schedule, or fenced.
func (e *engine) boundary(params []float64, step int, launched bool) bool {
	if e.bidx == e.crashAt {
		// Fail-stop: go silent without posting the boundary's heartbeat.
		// The peers detect and evict.
		e.mem.Crash(e.rank)
		return false
	}
	// The replica resets to w under a hierarchy, to x′ otherwise; the
	// fleet gauge's drift is measured against it before the membership
	// sync (pure local reads).
	ref := e.xref
	if e.hier != nil {
		ref = e.w
	}
	e.fc.boundaryStart(params, ref)
	if e.mem != nil {
		if !e.await() {
			return false
		}
		if e.view.Version != e.built {
			e.reform()
		}
	}
	g, vr, tk := e.view.G, e.vr, e.tk

	// Exchange.
	global := true // flat: every boundary exchanges globally
	if e.hier != nil {
		e.drain()
		ws := tk.Begin()
		e.hier.AllreduceIntra(vr, e.gs, e.hchunk, g.Clock(vr).Now())
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
	// replica reset, so a flat eager boundary is exactly one agg_wait and
	// one agg_apply.
	var as obs.Stamp
	applied, send := false, false
	switch {
	case !global:
		as = tk.Begin()
	case e.delayed:
		e.drain()
		as = tk.Begin()
		if applied = e.pending; applied {
			e.applyGlobal(e.pendAt, e.pend, e.pendG)
		}
		e.stage()
		e.pendAt, e.pendG, e.pending, send = e.bidx, e.gp, true, true
	default:
		buf := e.gs
		if e.hier != nil {
			e.stage()
			buf = e.pend
		}
		ws := tk.Begin()
		if launched {
			e.wait()
		} else {
			e.exchange(buf)
		}
		tk.End(obs.PhaseAggWait, ws)
		as = tk.Begin()
		e.applyGlobal(e.bidx, buf, e.gp)
		applied = true
	}
	if e.hier != nil && global {
		tensor.Copy(e.w, e.xref)
	}

	// Drift step (where x̄ = ref exactly), then x ← ref. gs ← 0 is not a
	// pass of its own: the next interval's first local step writes
	// gs = 0 + g (localStep).
	e.sched.advance(g, vr, e.view.Size(), params, ref)
	e.reset(params, ref)
	e.fresh = true
	tk.End(obs.PhaseAggApply, as)

	if applied {
		e.adaptK()
	}
	if e.fc != nil {
		var ratio, s2, r2 float64
		if e.comp != nil {
			// Totals, not TakeCapture: the adaptive controller consumes
			// the capture.
			ratio = e.ratio
			s2, r2 = e.comp.Totals()
		}
		e.fc.boundaryEnd(g, vr, e.sched.T(), ratio, s2, r2)
	}
	// The staged aggregate goes out only after every learner collective
	// of this boundary has run (mailbox aliasing, above).
	if send {
		if e.async {
			e.launch(e.pend, g.Clock(vr).Now())
			e.inflight = true
		} else {
			ws := tk.Begin()
			e.exchange(e.pend)
			tk.End(obs.PhaseAggWait, ws)
		}
	}
	e.bidx++
	e.checkpoint(step)
	return true
}

// applyGlobal folds one completed global aggregate into the reference,
// x′ ← x′ − rate·agg, after showing it to AggHook under its origin
// boundary (dense aggregates only: a codec's output is not the
// gradient sum the hook's users compare).
func (e *engine) applyGlobal(origin int, agg []float64, rate float64) {
	if e.cfg.AggHook != nil && e.vr == 0 && e.comp == nil {
		e.cfg.AggHook(origin, agg)
	}
	tensor.Axpy(-rate, agg, e.xref)
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
	case e.comp != nil && !e.hier.IsLeader(e.vr):
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
// the codec's per-bucket collectives, the inter-island exchange, or the
// configured dense collective.
func (e *engine) exchange(buf []float64) {
	g, vr := e.view.G, e.vr
	switch {
	case e.comp != nil:
		e.launch(buf, g.Clock(vr).Now())
		e.wait()
	case e.hier != nil:
		e.hier.AllreduceInter(vr, buf, e.hchunk, g.Clock(vr).Now())
	case e.cfg.Allreduce == AllreducePTree:
		g.AllreduceTreeChunked(vr, buf, e.cfg.CommChunk)
	default:
		g.AllreduceTree(vr, buf)
	}
}

// launch submits every bucket of buf through the worker in descending
// index order — the order the backward hooks produce.
func (e *engine) launch(buf []float64, ready float64) {
	for bi := len(e.segs) - 1; bi >= 0; bi-- {
		e.begin(bi, buf, ready)
	}
}

// begin submits bucket bi of buf with the policy's collective.
func (e *engine) begin(bi int, buf []float64, ready float64) {
	switch {
	case e.comp != nil:
		e.handles[bi] = e.b.BeginCompressed(bi, buf, e.res, e.comp, e.ratio, ready)
	case e.hier != nil:
		e.handles[bi] = e.b.BeginHierInter(bi, buf, e.hier, e.chunk, ready)
	default:
		e.handles[bi] = e.b.Begin(bi, buf, e.chunk, ready)
	}
}

// wait blocks until every launched bucket has completed.
func (e *engine) wait() {
	for i := range e.handles {
		e.handles[i].Wait()
	}
}

// drain waits out an in-flight delayed launch and folds its deferred
// clock syncs into the rank's simulated clock. The aggregate stays
// pending — only the transfer is waited out.
func (e *engine) drain() {
	if !e.inflight {
		return
	}
	ws := e.tk.Begin()
	e.wait()
	e.dsync.Join(e.view.G.Clock(e.vr))
	e.inflight = false
	e.tk.End(obs.PhaseAggWait, ws)
}

// flush applies a still-pending aggregate before the final evaluation
// and resets the replica to the resulting reference, leaving the run
// globally consistent. Local steps taken since the last boundary are
// discarded by the reset, exactly as a boundary discards them. Waiting
// on local handles involves no group collective, so per-rank timing is
// free to differ here.
func (e *engine) flush(params []float64) {
	e.drain()
	if !e.pending {
		return
	}
	as := e.tk.Begin()
	e.applyGlobal(e.pendAt, e.pend, e.pendG)
	e.pending = false
	ref := e.xref
	if e.hier != nil {
		tensor.Copy(e.w, e.xref)
		ref = e.w
	}
	e.reset(params, ref)
	e.tk.End(obs.PhaseAggApply, as)
}

// adaptK runs one adaptive-sparsity controller step after an aggregate
// has been applied: allreduce the codec's capture stats so every learner
// computes the identical next working fraction (top-k only: qint8 has no
// sparsity knob to steer).
func (e *engine) adaptK() {
	if e.comp == nil || !e.cfg.CompressAdapt || e.cfg.Compress != CodecTopK {
		return
	}
	e.adaptBuf[0], e.adaptBuf[1] = e.comp.TakeCapture()
	e.view.G.AllreduceTree(e.vr, e.adaptBuf[:])
	e.ratio = nextRatio(e.ratio, e.cfg.CompressK, e.adaptBuf[0], e.adaptBuf[1])
}

// close shuts the comm worker down.
func (e *engine) close() {
	if e.b != nil {
		e.b.Close()
	}
}
