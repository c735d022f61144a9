package core

import (
	"sync/atomic"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// The asynchronous baselines, Downpour and EAMSGD, share one learner
// loop, trainAsync: the sharded parameter server initialized from learner
// 0's replica, the virtual-time gate, the sampler, the epoch walk, the
// staleness statistics, evaluation and the Result. They differ only in a
// learner's local update and in its exchange with the server every T
// steps.
//
// Downpour ASGD (Dean et al., the paper's first baseline) applies each
// gradient locally and sums it; every T minibatches it pushes the sum to
// the server (which applies x̃ ← x̃ − γ·gs) and pulls fresh parameters —
// the variant the paper describes that "processes multiple minibatches
// before sending gradients asynchronously".
//
// EAMSGD (Zhang, Choromanska & LeCun, the paper's second baseline) takes
// momentum steps v ← μ·v − γ·g, x ← x + v, and every T steps performs an
// elastic exchange with the server's center variable x̃:
//
//	d  = α·(xᵢ − x̃)
//	xᵢ ← xᵢ − d
//	x̃  ← x̃ + d
//
// with α = 0.9/p as in the EASGD paper. The elastic force links the
// learners with the center, which lets EAMSGD tolerate larger intervals
// than Downpour; the paper's figures show it between Downpour and SASGD.
//
// There is no synchronization between learners: staleness — how many
// other updates the server absorbed between a learner's read and its
// write — is determined by goroutine scheduling, exactly the scheduler-
// and topology-dependent staleness the paper contrasts with SASGD's
// explicit bound. The run measures it (Result.StalenessMean/Max).
// Config.VirtualTime trades that realism for reproducibility (vtime.go).

// trainAsync runs Downpour or EAMSGD: p learners stepping freely over
// their own shards against one sharded parameter server.
func trainAsync(cfg Config, prob *Problem, rec *recorder) (*Result, error) {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)
	alpha := 0.9 / float64(p)

	// The server is initialized from learner 0's replica; learners then
	// pull it, which stands in for the initial broadcast.
	net0, err := prob.newReplica(cfg.Seed)
	if err != nil {
		return nil, err
	}
	var clocks []comm.Clock
	var cost comm.CostModel
	if cfg.Sim != nil {
		clocks, cost = cfg.Sim.Clocks(), cfg.Sim.CostModel()
	}
	server := comm.NewParamServer(net0.ParamData(), min(p, 8), clocks, cost)

	var samples atomic.Int64
	var stats stalenessStats
	var finalParams []float64
	var gate *virtualGate
	if cfg.VirtualTime {
		gate = newVirtualGate(p)
	}

	err = runLearnersOn(identity(p), nil, func(rank int) error {
		defer gate.Done(rank)
		net, err := prob.newReplica(cfg.Seed + int64(rank))
		if err != nil {
			return err
		}
		params, grads := net.ParamData(), net.GradData()
		// Downpour's interval gradient sum, or EAMSGD's velocity.
		buf := make([]float64, len(params))
		// Each gated step ends at the learner's virtual clock: its fabric
		// clock when the run is simulated, else its step count.
		step := 0
		release := func() {
			if cfg.Sim != nil {
				gate.Release(rank, cfg.Sim.Clock(rank).Now())
			} else {
				gate.Release(rank, float64(step))
			}
		}

		// The initial pull is learners' step 0: gated so the starting
		// parameters are deterministic under virtual time. Staleness
		// differences the generations of each exchange against those of
		// the learner's last read.
		gate.Acquire(rank)
		readGens := server.Pull(rank, params)
		release()
		sampler := data.NewEpochSampler(shards[rank].Len(), cfg.Batch, cfg.Seed+int64(rank)*31+7)
		var lastLoss float64
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for b := 0; b < bpe; b++ {
				gate.Acquire(rank)
				idx := sampler.Next()
				x, y := shards[rank].Batch(idx)
				lastLoss = net.Step(x, y)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				step++
				exchange := step%cfg.Interval == 0
				if cfg.Algo == AlgoDownpour {
					tensor.Axpy(-cfg.Gamma, grads, params)
					tensor.Axpy(1, grads, buf)
					if exchange {
						stats.observe(staleness(readGens, server.PushGrad(rank, cfg.Gamma, buf)))
						clear(buf)
						readGens = server.Pull(rank, params)
					}
				} else {
					for i, g := range grads {
						buf[i] = cfg.Momentum*buf[i] - cfg.Gamma*g
					}
					tensor.Axpy(1, buf, params)
					if exchange {
						// The exchange both reads and writes the center, so
						// its generations serve as the next read's too.
						gens := server.Elastic(rank, alpha, params)
						stats.observe(staleness(readGens, gens))
						readGens = gens
					}
				}
				release()
			}
			// Learner 0's pass over its shard marks one collective epoch
			// (the paper's accounting: Downpour reports accuracy from one
			// learner after each of its full passes).
			if rank == 0 && (epoch+1)%cfg.EvalEvery == 0 {
				simNow := 0.0
				if cfg.Sim != nil {
					simNow = cfg.Sim.MaxTime()
				}
				// The other learners keep running: one shard on this
				// learner's own kernel workers.
				rec.record(epoch+1, params, lastLoss, simNow, 1)
			}
		}
		if rank == 0 {
			finalParams = append([]float64(nil), params...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	simTime, compute, communication := cfg.simSplits()
	return &Result{
		Algo:          cfg.Algo,
		P:             p,
		T:             cfg.Interval,
		Curve:         rec.points(),
		Samples:       samples.Load(),
		SimTime:       simTime,
		SimCompute:    compute,
		SimComm:       communication,
		StalenessMean: stats.mean(),
		StalenessMax:  atomic.LoadInt64(&stats.max),
		FinalParams:   finalParams,
	}, nil
}

// staleness counts the server updates by other learners that intervened
// between a learner's last read and its next exchange: each shard
// advanced by one for our own exchange, so anything beyond that is
// foreign.
func staleness(pullGens, pushGens []int64) int64 {
	var s int64
	for i := range pushGens {
		d := pushGens[i] - pullGens[i] - 1
		if d > 0 {
			s += d
		}
	}
	return s / int64(len(pushGens))
}
