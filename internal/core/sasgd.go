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
// checkpoints, a scheduled crash — is a stage of the boundary engine
// (boundary.go) the loop calls every T steps; the loop itself only
// knows local steps and epochs. Every run syncs on one fixed group.
func trainSASGD(cfg Config, prob *Problem, rec *recorder) (*Result, error) {
	p := cfg.Learners

	// Resume: two rank spaces (see boundary.go). dataRanks maps this
	// run's learners onto the original run's shards and seed streams.
	var rs *resumeState
	if cfg.ResumeFrom != "" {
		var err error
		if rs, err = loadResume(cfg); err != nil {
			return nil, err
		}
		// γp belongs to the original run's shape; restore it so rescaling
		// by OrigP/p lands the survivors on the per-gradient step the
		// original γp encoded.
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
	if startStep < 0 || startStep > cfg.Epochs*bpe {
		return nil, fmt.Errorf("core: checkpoint step %d outside the run's [0, %d]", startStep, cfg.Epochs*bpe)
	}

	// The run's group: over the caller's wire transport when one is
	// configured, else over the in-process fabric — simulated when
	// cfg.Sim is attached.
	var clocks []comm.Clock
	var cost comm.CostModel
	if cfg.Sim != nil {
		// A sequential run may carry a simulator built for more learners
		// than the one it forces: it takes the first p clocks.
		clocks, cost = cfg.Sim.Clocks()[:p], cfg.Sim.CostModel()
	}
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
	// The learner tracks are the fleet frame's clock and compute time. A
	// metrics-only run gives them a tracer of one-span rings that nothing
	// else in the run sees.
	var fleet *obs.Fleet
	learnerTracer := cfg.Tracer
	if cfg.Metrics {
		fleet = obs.NewFleet(p)
		if learnerTracer == nil {
			learnerTracer = obs.NewTracer(1)
		}
	}
	var samples, boundaries atomic.Int64
	var finalParams []float64
	var finalRatio float64
	var finalT int

	local := cfg.localRanks()
	// Closing the fabric unwinds the peers parked on a failed learner.
	err := runLearnersOn(local, group.Close, func(rank int) error {
		dataPhys := dataRanks[rank]
		net, err := prob.newReplica(cfg.Seed + int64(dataPhys))
		if err != nil {
			return err
		}
		params := net.ParamData()
		tk := learnerTracer.Learner(rank)
		net.SetTrack(tk)
		fc := newFleetCollector(cfg, rank, p, fleet, tk)

		if rs != nil {
			if len(rs.params) != len(params) {
				return fmt.Errorf("core: checkpoint has %d parameters, model has %d", len(rs.params), len(params))
			}
			copy(params, rs.params)
		}
		// x ← broadcast(x, p, id); x′ ← x. On resume all replicas already
		// carry the checkpoint parameters and the broadcast is a no-op in
		// values; it still runs so the wire schedule matches a cold start.
		bs := tk.Begin()
		group.BroadcastTree(rank, params)
		tk.End(obs.PhaseBcast, bs)

		e := newEngine(cfg, group, rank, origP, net, tk, fc)
		defer e.close()
		e.dataRanks, e.bidx = dataRanks, startBoundary
		if rs != nil {
			e.sched.restore(rs.meta.CurT)
		}
		// A slowed rank (slow=R:K) sleeps the compute it stands for at the
		// end of each backward pass, inside its span.
		var afterBackward func()
		if slowSleep := cfg.Faults.SlowSleepFor(rank); slowSleep > 0 {
			afterBackward = func() { time.Sleep(slowSleep) }
		}

		sampler := data.NewEpochSampler(shards[dataPhys].Len(), cfg.Batch, cfg.Seed+int64(dataPhys)*31+7)
		sampler.Skip(startStep)
		if cfg.Sim != nil {
			cfg.Sim.SkipBatches(rank, startStep)
			if k := cfg.Faults.SlowFactor(rank); k > 1 {
				cfg.Sim.SetSlowdown(rank, k)
			}
		}

		var lastLoss float64
		step := startStep
		next := step + e.sched.T()
		for epoch := startStep / bpe; epoch < cfg.Epochs; epoch++ {
			// step − epoch·bpe is 0 except in the epoch a resume lands in.
			for b := step - epoch*bpe; b < bpe; b++ {
				idx := sampler.Next()
				x, y := shards[dataPhys].Batch(idx)
				// The batch's simulated compute is charged up front — one
				// jitter draw per batch — and the clock jumps to the batch's
				// end; nothing reads it before the boundary.
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				last := step+1 == next
				lastLoss = net.StepThen(x, y, afterBackward)
				ls := tk.Begin()
				e.localStep(params, last)
				tk.End(obs.PhaseLocalStep, ls)
				samples.Add(int64(len(idx)))
				step++
				if step == next {
					if err := e.boundary(params, step); err != nil {
						return err
					}
					next = step + e.sched.T()
				}
			}
			// A delayed launch must not stay in flight across the epoch
			// barrier (placement, boundary.go); the last epoch also
			// applies whatever is still pending, so the final evaluation
			// sees a globally consistent model.
			if epoch == cfg.Epochs-1 {
				e.flush(params)
			} else {
				e.drain()
			}
			// Collective epoch boundary: synchronize, let rank 0 record
			// accuracy from its own replica (the paper collects accuracy
			// from one learner after each full pass), synchronize again so
			// nobody races ahead into the next epoch during evaluation.
			group.Barrier(rank)
			if rank == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				// Between the two barriers every other learner of this
				// process is parked and every comm handle has been waited
				// out, so the evaluation spends the kernel workers the
				// local learners hold together as sample shards, each
				// running serial kernels: the layers outside the GEMMs
				// (pools, activations) split too. A prediction does not
				// depend on the shard that makes it: the curve does not move.
				es := tk.Begin()
				shards := parallel.Workers() * len(local)
				prev := parallel.SetWorkers(1)
				rec.record(epoch+1, params, lastLoss, simNow, shards)
				parallel.SetWorkers(prev)
				tk.End(obs.PhaseEval, es)
			}
			group.Barrier(rank)
		}
		boundaries.Store(int64(e.bidx - startBoundary)) // the same count on every learner
		if rank == 0 {
			finalParams = append([]float64(nil), params...)
			finalT = e.sched.T()
			if e.comp != nil && cfg.Compress == CodecTopK {
				finalRatio = e.ratio
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	st := group.Stats()
	simTime, compute, communication := cfg.simSplits()
	// A process that does not host rank 0 never ingests.
	snap := fleet.Snapshot()
	if snap != nil && snap.Boundaries == 0 {
		snap = nil
	}
	return &Result{
		Algo:        cfg.Algo,
		P:           p,
		T:           cfg.Interval,
		FinalT:      finalT,
		Boundaries:  int(boundaries.Load()),
		Curve:       rec.points(),
		Samples:     samples.Load(),
		SimTime:     simTime,
		SimCompute:  compute,
		SimComm:     communication,
		WordsMoved:  st.Words,
		Comm:        st,
		CompressK:   finalRatio,
		FinalParams: finalParams,
		Fleet:       snap,
	}, nil
}

// localStep is Algorithm 1's x ← x − γ·g ; gs ← gs + g for one
// minibatch, without the passes over the model nothing would read:
//
//	x ← x − γ·g   skipped on the last step of an interval (last) unless a
//	              drift consumer reads the replica before the boundary
//	              resets it (engine.keepLocal): the reset overwrites it.
//	gs ← gs + g   the first step of an interval writes gs = 0 + g, so no
//	              boundary clears gs. At static T = 1 with no drift
//	              consumer gs is g itself (engine.gsIsG) and there is
//	              no pass: a −0 gradient keeps its sign, which no apply
//	              can see, since no parameter is ever −0 (DESIGN §12).
//	both          one pass over g instead of two.
//
// When the T-scheduler or the fleet frame is attached no update is
// skipped: both read the drift of the replica the last step moved.
func (e *engine) localStep(params []float64, last bool) {
	keepX := !last || e.keepLocal
	switch {
	case e.gsIsG: // gs is g; x is dead
	case keepX:
		tensor.AxpyAccumulate(-e.cfg.Gamma, e.grads, params, e.gs, e.fresh)
	default:
		tensor.Accumulate(e.gs, e.grads, e.fresh)
	}
	e.fresh = false
}
