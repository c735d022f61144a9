package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/data"
	"sasgd/internal/nn"
	"sasgd/internal/parallel"
)

// Run runs one training experiment: trainSASGD runs Algorithm 1 (and
// sequential SGD as its p = 1 case), trainAsync the asynchronous
// baselines. It returns Validate's error, or the error that ended the run:
// empty data, a nil model, a ResumeFrom or CheckpointPath file that fails,
// or a learner's failure as "learner r: …" — a fault plan's crash
// ("learner 1: core: rank 1 crashed at boundary 2 (fault plan)"; recovery
// is a second Run with ResumeFrom and ResumeRanks), or errors.Is(err,
// comm.ErrClosed) when the Transport was closed under the run or a wire
// link ended: a peer process that exits or is killed ends its peers'
// runs with the link's cause ("learner 0: comm: tcp link 1→0: EOF"), and
// one that is stopped but not dead still blocks them (no read deadline).
func Run(cfg Config, prob *Problem) (*Result, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if prob.Train == nil || prob.Test == nil || prob.Train.Len() == 0 {
		return nil, errors.New("core: Run needs non-empty train and test datasets")
	}
	// Divide the intra-op worker budget across the learner goroutines
	// this process drives for the duration of the run, so learners × w
	// kernel workers never oversubscribe the machine. Restored on exit
	// because callers (tests, benchmark sweeps) may have set an explicit
	// budget.
	defer parallel.SetWorkers(parallel.SetWorkers(workersPerLearner(cfg)))
	start := time.Now()
	rec, err := newRecorder(prob)
	if err != nil {
		return nil, err
	}
	train := trainAsync // Downpour, EAMSGD: resolve admits no other value
	if cfg.Algo == AlgoSGD || cfg.Algo == AlgoSASGD {
		train = trainSASGD // SGD is Algorithm 1 at p = 1 (resolve)
	}
	res, err := train(cfg, prob, rec)
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	last := res.Curve.Final()
	res.FinalTrain, res.FinalTest = last.Train, last.Test
	return res, nil
}

// Train is Run for callers whose configuration and data are fixed in
// code: it panics with Run's error.
func Train(cfg Config, prob *Problem) *Result {
	res, err := Run(cfg, prob)
	if err != nil {
		panic(err)
	}
	return res
}

// workersPerLearner resolves cfg.Workers: an explicit value wins;
// otherwise the current process-wide budget is split evenly across the
// learners this process drives, never below 1.
func workersPerLearner(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return max(parallel.Workers()/max(len(cfg.localRanks()), 1), 1)
}

// identity returns the rank list 0..p−1.
func identity(p int) []int {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	return all
}

// runLearnersOn starts one learner goroutine per rank in ranks, waits for
// all of them and returns the first failure, "learner r: " wrapping the
// learner's returned error or the value of a panic it recovered
// (comm.ErrClosed unwinding included). A failing learner records its
// failure before it calls abort (when set), which must unblock every
// peer parked on it — so a peer's ErrClosed never masks the cause.
func runLearnersOn(ranks []int, abort func(), fn func(rank int) error) error {
	var wg sync.WaitGroup
	var once sync.Once
	failures := make(chan error, len(ranks))
	for _, rank := range ranks {
		wg.Add(1)
		go func(rank int) {
			var err error
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, _ = r.(error); err == nil {
						err = fmt.Errorf("%v", r)
					}
				}
				if err != nil {
					failures <- fmt.Errorf("learner %d: %w", rank, err)
					if abort != nil {
						once.Do(abort)
					}
				}
			}()
			err = fn(rank)
		}(rank)
	}
	wg.Wait()
	select {
	case err := <-failures:
		return err
	default:
		return nil
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
func (p *Problem) newReplica(seed int64) (*nn.Network, error) {
	net := p.Model(seed)
	if net == nil {
		return nil, errors.New("core: model factory returned nil")
	}
	return net, nil
}
