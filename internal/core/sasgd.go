package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/obs"
	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// trainSASGD implements Algorithm 1 of the paper.
//
// Each of the p learners runs T local minibatch updates (x ← x − γ·g),
// accumulating every gradient it applied into gs. At the end of the
// interval the learners allreduce gs, apply the aggregated gradient to
// the shared reference parameters with the global rate γp
// (x′ ← x′ − γp·gs), reset their local replica to x′, and clear gs.
// Initial parameters are broadcast from learner 0. With γp = γ/p the
// aggregation step is exactly model averaging of the p local replicas,
// the heuristic the paper notes Algorithm 1 simulates.
//
// Gradient staleness is bounded by T by construction: no gradient is
// applied to the global parameters more than T local updates after it
// was computed, which is the property the paper contrasts with ASGD's
// scheduler-dependent staleness.
//
// This is the only SASGD loop. Everything a Config can ask of the
// aggregation — a moving T, a hierarchy, delayed application, a codec,
// backward-overlapped launches, crash tolerance, checkpoints — is a
// stage of the boundary engine (boundary.go) the loop calls every T
// steps; the loop itself only knows local steps and epochs.
func trainSASGD(cfg Config, prob *Problem) *Result {
	p := cfg.Learners

	// Resume: two rank spaces (see boundary.go). dataRanks maps this
	// run's learners onto the original run's shards and seed streams.
	var rs *resumeState
	if cfg.ResumeFrom != "" {
		var err error
		if rs, err = loadResume(cfg); err != nil {
			panic(err)
		}
		// γp belongs to the original run's shape; restore it so rescaling
		// by OrigP/|live| lands on the same effective rate the original
		// run's survivors would use.
		cfg.GammaP = rs.meta.GammaP
	}
	all := identity(p)
	origP, dataRanks := p, all
	startStep, startBoundary := 0, 0
	if rs != nil {
		origP, dataRanks = rs.meta.OrigP, rs.ranks
		startStep, startBoundary = rs.meta.Step, rs.meta.Boundary
	}

	// Shards are partitioned by the ORIGINAL learner count so a
	// survivors-only resume trains on the survivors' own shards, not a
	// repartition of the whole set.
	shards := prob.Train.Partition(origP)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	// Membership: a fault plan, checkpoint or resume puts every sync point
	// on a comm.Resilient ledger; otherwise the view is the run's group,
	// for good. Either is built over the caller's wire transport when one
	// is configured (the same mesh then carries every membership view,
	// and NewResilientOver insists it is all-local), else over the
	// in-process fabric — simulated when cfg.Sim is attached.
	var clocks []comm.Clock
	var cost comm.CostModel
	if cfg.Sim != nil {
		clocks, cost = cfg.Sim.Clocks(), cfg.Sim.CostModel()
	}
	var mem *comm.Resilient
	var view comm.View
	if cfg.membership() {
		if cfg.Transport != nil {
			mem = comm.NewResilientOver(cfg.Transport, cfg.Faults, clocks, cost, cfg.Tracer)
		} else {
			mem = comm.NewResilient(p, cfg.Faults, clocks, cost, cfg.Tracer)
		}
		view = mem.Current()
	} else {
		var group *comm.Group
		if cfg.Transport != nil {
			group = comm.NewTransportGroup(cfg.Transport, nil, clocks, cost)
		} else {
			group = comm.NewSimGroup(p, clocks, cost)
		}
		// Attach the tracer before the learner goroutines start: comm
		// workers pick up their trace tracks at creation.
		group.SetTracer(cfg.Tracer)
		// Cross-island accounting starts with the initial broadcast, so the
		// island map goes in before any learner sends: the hierarchy's own
		// partition, or for a flat run the simulated topology's — so
		// frontier tables can compare the uplink traffic a hierarchical
		// schedule would have avoided.
		if cfg.HierGroups >= 2 {
			group.SetIslands(comm.BlockIslands(p, cfg.HierGroups))
		} else if cfg.Sim != nil {
			islandOf := make([]int, p)
			for r := range islandOf {
				islandOf[r] = cfg.Sim.IslandOf(r)
			}
			group.SetIslands(islandOf)
		}
		view = comm.View{G: group, Phys: all}
	}
	// The run's counters: the group's, or the membership layer's sum over
	// every group it formed. The tracer's live stats source serves them
	// to the debug endpoint.
	stats := view.G.Stats
	if mem != nil {
		stats = mem.Stats
	}
	cfg.Tracer.SetStats(func() interface{} { return stats() })
	rec := newRecorder(prob)
	fleet := newFleet(cfg, p)
	var samples atomic.Int64
	var finalParams []float64
	var finalRatio float64
	var finalT int

	local := all // the learner ranks this process drives
	if len(cfg.LocalRanks) > 0 {
		local = cfg.LocalRanks
	}
	runLearnersOn(local, func(rank int) {
		dataPhys := dataRanks[rank]
		net := prob.newReplica(cfg.Seed + int64(dataPhys))
		params := net.ParamData()
		tk := cfg.Tracer.Learner(rank)
		net.SetTrack(tk)
		fc := newFleetCollector(cfg, rank, p, fleet)
		fc.attach(net)

		if rs != nil {
			if len(rs.params) != len(params) {
				panic(fmt.Sprintf("core: checkpoint has %d parameters, model has %d", len(rs.params), len(params)))
			}
			copy(params, rs.params)
		}
		// x ← broadcast(x, p, id); x′ ← x. On resume all replicas already
		// carry the checkpoint parameters and the broadcast is a no-op in
		// values; it still runs so the wire schedule matches a cold start.
		bs := tk.Begin()
		view.G.BroadcastTree(rank, params)
		tk.End(obs.PhaseBcast, bs)

		e := newEngine(cfg, mem, view, rank, origP, net, tk, fc)
		defer e.close()
		e.dataRanks, e.bidx = dataRanks, startBoundary
		if rs != nil {
			e.sched.restore(rs.meta.CurT)
		}
		var onLayerDone func(layer int)
		if e.overlap {
			onLayerDone = e.onLayerDone
		}

		sampler := data.NewEpochSampler(shards[dataPhys].Len(), cfg.Batch, cfg.Seed+int64(dataPhys)*31+7)
		sampler.Skip(startStep)
		if cfg.Sim != nil {
			cfg.Sim.SkipBatches(rank, startStep)
			if k := cfg.Faults.SlowFactor(rank); k > 1 {
				cfg.Sim.SetSlowdown(rank, k)
			}
		}
		slowSleep := cfg.Faults.SlowSleepFor(rank)

		var lastLoss float64
		step := startStep
		next := step + e.sched.T()
		for epoch := startStep / bpe; epoch < cfg.Epochs; epoch++ {
			// step − epoch·bpe is 0 except in the epoch a resume lands in.
			for b := step - epoch*bpe; b < bpe; b++ {
				idx := sampler.Next()
				x, y := shards[dataPhys].Batch(idx)
				// The batch's simulated span is drawn up front — one jitter
				// draw per batch — and the clock jumps to the batch's end;
				// nothing reads it before the boundary. On the boundary
				// batch of an overlapped run the gradient sum is updated
				// bucket by bucket inside backward (overlap.go), and each
				// bucket's send is stamped analytically inside the span.
				if cfg.Sim != nil {
					e.start, e.dt = cfg.Sim.BatchSpan(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				last := step+1 == next
				launched := e.overlap && last
				if launched {
					lastLoss = net.StepEach(x, y, onLayerDone)
				} else {
					lastLoss = net.Step(x, y)
				}
				ls := tk.Begin()
				e.localStep(params, last, launched)
				tk.End(obs.PhaseLocalStep, ls)
				samples.Add(int64(len(idx)))
				if slowSleep > 0 {
					time.Sleep(slowSleep)
				}
				step++
				if step == next {
					if !e.boundary(params, step, launched) {
						return
					}
					next = step + e.sched.T()
				}
			}
			// A delayed launch must not stay in flight across the epoch
			// barrier (mailbox aliasing, boundary.go); the last epoch also
			// applies whatever is still pending, so the final evaluation
			// sees a globally consistent model.
			if epoch == cfg.Epochs-1 {
				e.flush(params)
			} else {
				e.drain()
			}
			// Collective epoch boundary: synchronize, let the view's
			// virtual rank 0 record accuracy from its own replica (the
			// paper collects accuracy from one learner after each full
			// pass; the role moves if rank 0 crashes), synchronize again
			// so nobody races ahead into the next epoch during evaluation.
			if !e.barrier() {
				return
			}
			if e.vr == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				// Between the two barriers every other learner of this
				// process is parked and every comm handle has been waited
				// out, so the evaluation runs on the kernel workers the
				// local learners hold together. Kernels are bitwise
				// identical at every worker count: the curve does not move.
				prev := parallel.SetWorkers(parallel.Workers() * len(local))
				rec.record(epoch+1, params, lastLoss, simNow)
				parallel.SetWorkers(prev)
			}
			if !e.barrier() {
				return
			}
		}
		if e.vr == 0 {
			finalParams = append([]float64(nil), params...)
			finalT = e.sched.T()
			if e.comp != nil && cfg.Compress == CodecTopK {
				finalRatio = e.ratio
			}
		}
	})

	st := stats()
	liveP := p
	if mem != nil {
		liveP = mem.Current().Size()
		mem.Close()
	}
	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:        AlgoSASGD,
		P:           p,
		T:           cfg.Interval,
		FinalT:      finalT,
		Curve:       rec.points(),
		Samples:     samples.Load(),
		SimTime:     simTime,
		SimCompute:  compute,
		SimComm:     communication,
		WordsMoved:  st.Words,
		Comm:        st,
		CompressK:   finalRatio,
		LiveP:       liveP,
		FinalParams: finalParams,
	}
}

// localStep is Algorithm 1's x ← x − γ·g ; gs ← gs + g for one
// minibatch, without the passes over the model nothing would read:
//
//	x ← x − γ·g   skipped on the last step of an interval (last) unless a
//	              drift consumer reads the replica before the boundary
//	              resets it (engine.keepLocal): the reset overwrites it.
//	gs ← gs + g   the first step of an interval writes gs = 0 + g — the
//	              bits adding into a cleared gs would give — so no
//	              boundary clears gs; on the overlapped batch (launched)
//	              the backward hook has done it bucket by bucket.
//	both          one pass over g instead of two.
//
// The rule is the same for every batch, overlapped or not, so the drift
// the T-scheduler and the fleet gauge read never depends on the launch
// schedule: when either is attached no update is skipped.
func (e *engine) localStep(params []float64, last, launched bool) {
	keepX := !last || e.keepLocal
	switch {
	case launched && keepX:
		tensor.Axpy(-e.cfg.Gamma, e.grads, params)
	case launched: // gs went out from inside backward and x is dead
	case keepX:
		tensor.AxpyAccumulate(-e.cfg.Gamma, e.grads, params, e.gs, e.fresh)
	default:
		tensor.Accumulate(e.gs, e.grads, e.fresh)
	}
	e.fresh = false
}
