package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/data"
	"sasgd/internal/nn"
	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// Train runs one training experiment and returns its result. It
// dispatches on cfg.Algo; every algorithm shares the same data
// partitioning, per-learner replicas, epoch accounting, and (optional)
// fabric simulation.
func Train(cfg Config, prob *Problem) *Result {
	cfg = cfg.withDefaults()
	if prob.Train == nil || prob.Test == nil || prob.Train.Len() == 0 {
		panic("core: Train needs non-empty train and test datasets")
	}
	// Make the metrics registry reachable from the tracer's live debug
	// endpoint (/debug/metrics and the /debug/obs snapshot). Both sides
	// are nil-safe, so this is a no-op unless both are attached.
	cfg.Tracer.SetMetrics(cfg.Metrics)
	// Divide the intra-op worker budget across the p learner goroutines
	// for the duration of the run, so p learners × w kernel workers never
	// oversubscribe the machine. Restored on exit because callers (tests,
	// benchmark sweeps) may have set an explicit budget.
	defer parallel.SetWorkers(parallel.SetWorkers(workersPerLearner(cfg)))
	// Select the kernel flavour for the run, restoring the previous
	// setting on exit for the same reason as the worker budget.
	defer tensor.SetFastKernels(tensor.SetFastKernels(cfg.FastKernels))
	start := time.Now()
	var res *Result
	switch cfg.Algo {
	case AlgoSGD:
		res = trainSGD(cfg, prob)
	case AlgoSASGD:
		res = trainSASGD(cfg, prob)
	case AlgoDownpour:
		res = trainDownpour(cfg, prob)
	case AlgoEAMSGD:
		res = trainEAMSGD(cfg, prob)
	default: // AlgoHogwild: withDefaults admits no other value
		res = trainHogwild(cfg, prob)
	}
	res.Wall = time.Since(start)
	if res.LiveP == 0 {
		res.LiveP = res.P
	}
	if len(res.Curve) > 0 {
		last := res.Curve[len(res.Curve)-1]
		res.FinalTrain, res.FinalTest = last.Train, last.Test
	}
	return res
}

// workersPerLearner resolves cfg.Workers: an explicit value wins;
// otherwise the current process-wide budget is split evenly across the
// learners this process actually hosts, never below 1.
func workersPerLearner(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	n := cfg.Learners
	if len(cfg.LocalRanks) > 0 {
		n = len(cfg.LocalRanks)
	}
	w := parallel.Workers() / n
	if w < 1 {
		w = 1
	}
	return w
}

// identity returns the rank list 0..p−1.
func identity(p int) []int {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	return all
}

// runLearners starts p learner goroutines and waits for all of them.
func runLearners(p int, fn func(rank int)) { runLearnersOn(identity(p), fn) }

// runLearnersOn starts one learner goroutine per rank in ranks and
// waits for all of them. A panic in any learner is rethrown on the
// caller's goroutine with the learner's rank attached.
func runLearnersOn(ranks []int, fn func(rank int)) {
	var wg sync.WaitGroup
	panics := make(chan interface{}, len(ranks))
	for _, rank := range ranks {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- fmt.Sprintf("learner %d: %v", rank, r)
				}
			}()
			fn(rank)
		}(rank)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// batchesPerEpoch returns the uniform per-learner batch count per
// collective epoch: every learner executes the same number of minibatches
// so bulk-synchronous collectives stay aligned even when the data does
// not split evenly.
func batchesPerEpoch(shards []*data.Dataset, batch int) int {
	maxLen := 0
	for _, s := range shards {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	return (maxLen + batch - 1) / batch
}

// simSplits averages the per-learner compute/communication seconds.
func (c Config) simSplits() (simTime, compute, communication float64) {
	if c.Sim == nil {
		return 0, 0, 0
	}
	p := c.Learners
	for rank := 0; rank < p; rank++ {
		cp, cm := c.Sim.Clock(rank).Split()
		compute += cp
		communication += cm
	}
	return c.Sim.MaxTime(), compute / float64(p), communication / float64(p)
}

// stalenessStats accumulates staleness observations from asynchronous
// learners.
type stalenessStats struct {
	count int64
	sum   int64
	max   int64
}

func (s *stalenessStats) observe(v int64) {
	atomic.AddInt64(&s.count, 1)
	atomic.AddInt64(&s.sum, v)
	for {
		cur := atomic.LoadInt64(&s.max)
		if v <= cur || atomic.CompareAndSwapInt64(&s.max, cur, v) {
			return
		}
	}
}

func (s *stalenessStats) mean() float64 {
	n := atomic.LoadInt64(&s.count)
	if n == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&s.sum)) / float64(n)
}

// ModelFactory builds one learner's model replica. Each learner calls it
// with a distinct seed (for dropout masks); initial parameters are then
// overwritten by a broadcast from learner 0, as in Algorithm 1.
type ModelFactory func(seed int64) *nn.Network

// Problem bundles a workload: the model factory and the train/test data.
type Problem struct {
	Name  string
	Model ModelFactory
	Train *data.Dataset
	Test  *data.Dataset
}

// newReplica builds and seeds a learner's model.
func (p *Problem) newReplica(seed int64) *nn.Network {
	net := p.Model(seed)
	if net == nil {
		panic("core: model factory returned nil")
	}
	return net
}
