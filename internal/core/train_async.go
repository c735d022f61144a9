package core

import (
	"math"
	"sync/atomic"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/tensor"
)

// The asynchronous baselines. Downpour, EAMSGD and Hogwild share one
// learner loop, trainAsync: the shards, the shared state initialized
// from learner 0's replica, the virtual-time gate, the sampler, the epoch
// walk, the staleness statistics, evaluation and the Result. They differ
// only in how a learner trades with the shared state, which an asyncRule
// spells out in three steps: the initial read, the read before each step,
// and the update after it — with, every T steps, the exchange.
//
// There is no synchronization between learners: staleness — how many
// other updates the shared state absorbed between a learner's read and
// its write — is determined by goroutine scheduling, exactly the
// scheduler- and topology-dependent staleness the paper contrasts with
// SASGD's explicit bound. The run measures it (Result.StalenessMean/Max).
// Config.VirtualTime trades that realism for reproducibility (vtime.go).

// asyncLearner is one learner's side of an asynchronous algorithm, over
// its replica's parameter and gradient vectors.
type asyncLearner struct {
	// pull is the initial read of the shared state into the replica.
	pull func()
	// read runs before every step, and at the end of rank 0's last step
	// of each epoch so that the epoch's evaluation sees the state as that
	// step left it. Nil when the replica is the learner's own.
	read func()
	// update applies the step's gradient. With exchange set (every T
	// steps) it also trades with the shared state and returns the
	// staleness it observed; −1 means nothing was observed.
	update func(exchange bool) int64
}

// asyncRule builds learner rank's side of an algorithm.
type asyncRule func(rank int, params, grads []float64) asyncLearner

// trainAsync runs Downpour, EAMSGD or Hogwild: p learners stepping freely
// over their own shards against state shared through cfg.Algo's rule.
func trainAsync(cfg Config, prob *Problem, rec *recorder) (*Result, error) {
	p := cfg.Learners
	shards := prob.Train.Partition(p)
	bpe := batchesPerEpoch(shards, cfg.Batch)

	// The shared state is initialized from learner 0's replica; learners
	// then read it, which stands in for the initial broadcast.
	net0, err := prob.newReplica(cfg.Seed)
	if err != nil {
		return nil, err
	}
	init := net0.ParamData()
	var rule asyncRule
	if cfg.Algo == AlgoHogwild {
		rule = hogwild(&cfg, init)
	} else {
		var clocks []comm.Clock
		var cost comm.CostModel
		if cfg.Sim != nil {
			clocks, cost = cfg.Sim.Clocks(), cfg.Sim.CostModel()
		}
		server := comm.NewParamServer(init, min(p, 8), clocks, cost)
		rule = downpour(&cfg, server)
		if cfg.Algo == AlgoEAMSGD {
			rule = eamsgd(&cfg, server)
		}
	}

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
		params := net.ParamData()
		l := rule(rank, params, net.GradData())
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

		// The initial read is learners' step 0: gated so the starting
		// parameters are deterministic under virtual time.
		gate.Acquire(rank)
		l.pull()
		release()
		sampler := data.NewEpochSampler(shards[rank].Len(), cfg.Batch, cfg.Seed+int64(rank)*31+7)
		var lastLoss float64
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for b := 0; b < bpe; b++ {
				gate.Acquire(rank)
				if l.read != nil {
					l.read()
				}
				idx := sampler.Next()
				x, y := shards[rank].Batch(idx)
				lastLoss = net.Step(x, y)
				samples.Add(int64(len(idx)))
				if cfg.Sim != nil {
					cfg.Sim.ChargeBatch(rank, cfg.FlopsPerSample*float64(len(idx)))
				}
				step++
				if s := l.update(step%cfg.Interval == 0); s >= 0 {
					stats.observe(s)
				}
				// Rank 0 reads what it evaluates inside its gated step,
				// before any peer can move the shared state again.
				if rank == 0 && b == bpe-1 && l.read != nil {
					l.read()
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
				rec.record(epoch+1, params, lastLoss, simNow)
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

// downpour is Downpour ASGD (Dean et al., the paper's first baseline).
// Each learner keeps a local replica; every T minibatches it pushes its
// accumulated gradient to the sharded parameter server (which applies
// x̃ ← x̃ − γ·gs) and pulls fresh parameters. Between syncs the learner
// also applies its gradients locally so it keeps learning within the
// interval, matching the Downpour variant the paper describes that
// "processes multiple minibatches before sending gradients
// asynchronously".
func downpour(cfg *Config, server *comm.ParamServer) asyncRule {
	return func(rank int, params, grads []float64) asyncLearner {
		gs := make([]float64, len(params))
		var pullGens []int64
		pull := func() { pullGens = server.Pull(rank, params) }
		return asyncLearner{pull: pull, update: func(exchange bool) int64 {
			tensor.Axpy(-cfg.Gamma, grads, params)
			tensor.Axpy(1, grads, gs)
			if !exchange {
				return -1
			}
			s := staleness(pullGens, server.PushGrad(rank, cfg.Gamma, gs))
			clear(gs)
			pull()
			return s
		}}
	}
}

// eamsgd is EAMSGD (Zhang, Choromanska & LeCun — the paper's second
// baseline): asynchronous SGD with momentum where, every T local
// updates, each learner performs an elastic exchange with a center
// variable x̃ held by the parameter server:
//
//	d  = α·(xᵢ − x̃)
//	xᵢ ← xᵢ − d
//	x̃  ← x̃ + d
//
// The elastic force links the learners' parameters with the center, which
// is what lets EAMSGD tolerate larger update intervals than Downpour; the
// paper's figures show it sitting between Downpour and SASGD. The default
// α is 0.9/p as in the EASGD paper, and local updates use momentum μ
// (the "M" in EAMSGD).
func eamsgd(cfg *Config, server *comm.ParamServer) asyncRule {
	return func(rank int, params, grads []float64) asyncLearner {
		vel := make([]float64, len(params))
		var pullGens []int64
		return asyncLearner{
			pull: func() { pullGens = server.Pull(rank, params) },
			update: func(exchange bool) int64 {
				// Momentum update: v ← μ·v − γ·g ; x ← x + v.
				for i, g := range grads {
					vel[i] = cfg.Momentum*vel[i] - cfg.Gamma*g
				}
				tensor.Axpy(1, vel, params)
				if !exchange {
					return -1
				}
				// The elastic exchange both reads and writes the center, so
				// its generations support the same staleness accounting as
				// Downpour's push.
				d, gens := server.Elastic(rank, cfg.Alpha, params)
				tensor.Axpy(-1, d, params)
				s := staleness(pullGens, gens)
				pullGens = gens
				return s
			},
		}
	}
}

// hogwild is Hogwild (Niu et al., cited by the paper as the lock-free
// ASGD whose linear-speedup analysis started the line of work SASGD
// responds to): all learners share ONE parameter vector with no locks
// and no server. Each learner snapshots the shared parameters, computes
// a minibatch gradient against the (possibly torn) snapshot, and applies
// it coordinate-by-coordinate with atomic compare-and-swap — the Go-safe
// rendering of Hogwild's racy in-place updates. The original analysis
// assumes sparse gradients; with dense deep-learning gradients the
// algorithm is "dense Hogwild", which is exactly the regime where the
// paper argues asynchrony starts to hurt. T plays no part.
func hogwild(cfg *Config, init []float64) asyncRule {
	shared := make([]atomic.Uint64, len(init))
	for i, v := range init {
		shared[i].Store(math.Float64bits(v))
	}
	return func(rank int, params, grads []float64) asyncLearner {
		// Snapshot the shared vector (per-word atomic loads; the vector as
		// a whole may be torn across concurrent writers, which is
		// Hogwild's defining property).
		read := func() {
			for i := range params {
				params[i] = math.Float64frombits(shared[i].Load())
			}
		}
		return asyncLearner{pull: read, read: read, update: func(bool) int64 {
			// Lock-free coordinate updates: x[i] ← x[i] − γ·g[i].
			for i, g := range grads {
				if g == 0 {
					continue
				}
				delta := cfg.Gamma * g
				for {
					old := shared[i].Load()
					if shared[i].CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)-delta)) {
						break
					}
				}
			}
			return -1
		}}
	}
}

// staleness counts the server updates by other learners that intervened
// between a pull and the following push: each shard advanced by one for
// our own push, so anything beyond that is foreign.
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
