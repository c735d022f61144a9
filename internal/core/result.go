package core

import (
	"fmt"
	"sync"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/metrics"
	"sasgd/internal/nn"
)

// Result summarizes one training run.
type Result struct {
	Algo Algorithm
	P    int // learners
	T    int // aggregation interval (configured; the T-scheduler's start)
	// FinalT is the communication period in effect when a SASGD run
	// finished — equal to T unless the adaptive T-scheduler moved it.
	// Zero for the other algorithms.
	FinalT int
	Curve  metrics.Curve
	// FinalTrain/FinalTest are the last recorded accuracies.
	FinalTrain float64
	FinalTest  float64
	// Samples is the total number of training samples processed across
	// all learners.
	Samples int64
	// Wall is the real elapsed time of the run.
	Wall time.Duration

	// Simulated-fabric measurements (zero when Config.Sim was nil).
	SimTime    float64 // simulated seconds, max across learners
	SimCompute float64 // mean per-learner compute seconds
	SimComm    float64 // mean per-learner communication seconds

	// Staleness statistics for the asynchronous algorithms: the number
	// of server updates that intervened between a learner's pull and its
	// push (0 for SASGD/SGD, whose staleness is bounded by construction).
	StalenessMean float64
	StalenessMax  int64

	// WordsMoved is the number of parameter words transferred through
	// the group collectives (SASGD) during the run.
	WordsMoved int64

	// Comm is the group's full communication-stats snapshot (traffic per
	// collective algorithm, mailbox wait, bucketed-pipeline occupancy,
	// fault counters) for the collective algorithms; zero value for the
	// server-based ones.
	Comm comm.Stats

	// CompressK is the final working top-k fraction of a compressed run:
	// the configured CompressK unless CompressAdapt moved it. Zero for
	// dense and qint8 runs.
	CompressK float64

	// LiveP is the number of learners still live when the run finished:
	// P minus crashes and evictions. Equal to P unless a fault plan
	// killed or fenced someone.
	LiveP int

	// FinalParams is learner 0's parameter vector when it finished its
	// run (the parameters the final accuracies were evaluated at for the
	// synchronous algorithms; for the asynchronous ones, learner 0's
	// replica at its own completion).
	FinalParams []float64
}

// EpochTime returns the mean simulated seconds per epoch (0 when the run
// was not simulated).
func (r *Result) EpochTime() float64 {
	if len(r.Curve) == 0 || r.SimTime == 0 {
		return 0
	}
	last := r.Curve[len(r.Curve)-1].Epoch
	if last == 0 {
		return 0
	}
	return r.SimTime / float64(last)
}

// String summarizes the run on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s p=%d T=%d: train %s test %s (%d samples, sim %.3fs)",
		r.Algo, r.P, r.T, metrics.Pct(r.FinalTrain), metrics.Pct(r.FinalTest), r.Samples, r.SimTime)
}

// evaluator measures accuracy of a flat parameter vector against a
// dataset using its own model replica (inference mode, no dropout).
// It is used from exactly one goroutine at a time.
type evaluator struct {
	net   *nn.Network
	ds    *data.Dataset
	batch int
	idx   []int
}

func newEvaluator(p *Problem, ds *data.Dataset) *evaluator {
	return &evaluator{net: p.newReplica(1<<40 + 1), ds: ds, batch: 256}
}

// accuracy evaluates the fraction of correct argmax predictions under
// the given parameters.
func (e *evaluator) accuracy(params []float64) float64 {
	e.net.SetParamData(params)
	n := e.ds.Len()
	if n == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < n; lo += e.batch {
		hi := lo + e.batch
		if hi > n {
			hi = n
		}
		if cap(e.idx) < hi-lo {
			e.idx = make([]int, hi-lo)
		}
		e.idx = e.idx[:hi-lo]
		for i := range e.idx {
			e.idx[i] = lo + i
		}
		x, y := e.ds.Batch(e.idx)
		pred := e.net.Predict(x)
		for i, p := range pred {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// recorder collects the accuracy curve during a run. Evaluations are
// requested by learner 0 at collective-epoch boundaries; the recorder is
// internally locked because asynchronous runs may race a final record
// against run teardown.
type recorder struct {
	mu        sync.Mutex
	trainEval *evaluator
	testEval  *evaluator
	start     time.Time
	curve     metrics.Curve
}

func newRecorder(p *Problem) *recorder {
	return &recorder{
		trainEval: newEvaluator(p, p.Train),
		testEval:  newEvaluator(p, p.Test),
		start:     time.Now(),
	}
}

// record evaluates params and appends a point for the given epoch.
func (r *recorder) record(epoch int, params []float64, loss, simTime float64) {
	tr := r.trainEval.accuracy(params)
	te := r.testEval.accuracy(params)
	r.mu.Lock()
	r.curve = append(r.curve, metrics.Point{
		Epoch:    epoch,
		Train:    tr,
		Test:     te,
		Loss:     loss,
		SimTime:  simTime,
		WallSecs: time.Since(r.start).Seconds(),
	})
	r.mu.Unlock()
}

func (r *recorder) points() metrics.Curve {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(metrics.Curve(nil), r.curve...)
}
