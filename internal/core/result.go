package core

import (
	"sync"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/parallel"
	"sasgd/internal/report"
)

// Result summarizes one training run.
type Result struct {
	Algo Algorithm
	P    int // learners
	T    int // aggregation interval (configured; the T-scheduler's start)
	// FinalT is the communication period in effect when a SASGD run
	// finished — equal to T unless the adaptive T-scheduler moved it. 1
	// for SGD (Algorithm 1 at T = 1); zero for the asynchronous
	// algorithms.
	FinalT int
	// Boundaries is the number of aggregation boundaries a SASGD or SGD
	// run's learners went through; zero for the asynchronous algorithms.
	Boundaries int
	Curve      report.Curve
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
	// collective algorithm, mailbox wait, in-flight exchange occupancy)
	// for SASGD; SGD's one-learner group moves nothing,
	// and the asynchronous algorithms report the zero value.
	Comm comm.Stats

	// CompressK is the final working top-k fraction of a compressed run:
	// the configured CompressK unless CompressAdapt moved it. Zero for
	// dense and qint8 runs.
	CompressK float64

	// FinalParams is learner 0's parameter vector when it finished its
	// run: the parameters the final accuracies were evaluated at for
	// SASGD and SGD; for Downpour and EAMSGD, learner 0's replica at its
	// own completion.
	FinalParams []float64

	// Fleet is the final fleet view of a run with Config.Metrics on:
	// per-rank health, drift RMS, straggler verdicts and the frame's words
	// on the wire. Nil with metrics off, for the asynchronous algorithms,
	// and in a process that never ingested a boundary (one that does not
	// host rank 0).
	Fleet *obs.FleetSnap
}

// EpochTime returns the mean simulated seconds per epoch (0 when the run
// was not simulated).
func (r *Result) EpochTime() float64 {
	last := r.Curve.Final().Epoch
	if last == 0 || r.SimTime == 0 {
		return 0
	}
	return r.SimTime / float64(last)
}

// evalChunk is the sample count of one evaluation job: the train and
// test sets are cut into chunks of this size, and a shard of an
// evaluation runs a contiguous range of them. A GEMM row's bits do not
// depend on the row count or the blocking (gemm_micro.go), so the size
// moves no prediction, only how finely the work splits.
const evalChunk = 64

// evalJob is one chunk, samples [lo, hi) of ds, with the count of them
// its last evaluation classified correctly.
type evalJob struct {
	ds      *data.Dataset
	lo, hi  int
	correct int
}

// recorder collects the accuracy curve during a run. Evaluations are
// requested by one learner at collective-epoch boundaries, and run on a
// model replica of the recorder's own. That replica only ever infers,
// which writes no layer state (nn.Network.Predict), so the shards of one
// evaluation share it. The recorder is internally locked because
// asynchronous runs may race a final record against run teardown.
type recorder struct {
	mu     sync.Mutex
	net    *nn.Network
	jobs   []evalJob // the train set's chunks, then the test set's
	nTrain int       // train set chunks
	start  time.Time
	curve  report.Curve
}

func newRecorder(p *Problem) (*recorder, error) {
	net, err := p.newReplica(1<<40 + 1)
	if err != nil {
		return nil, err
	}
	r := &recorder{net: net, start: time.Now()}
	for _, ds := range []*data.Dataset{p.Train, p.Test} {
		r.nTrain = len(r.jobs)
		for lo := 0; lo < ds.Len(); lo += evalChunk {
			r.jobs = append(r.jobs, evalJob{ds: ds, lo: lo, hi: min(lo+evalChunk, ds.Len())})
		}
	}
	return r, nil
}

// Range evaluates jobs [lo, hi): parallel.Body, one shard of eval.
func (r *recorder) Range(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		j := &r.jobs[i]
		x, y := j.ds.Span(j.lo, j.hi)
		j.correct = 0
		for k, c := range r.net.Predict(x) {
			if c == y[k] {
				j.correct++
			}
		}
	}
}

// eval returns the train and test accuracy of params, its jobs split
// over shards contiguous ranges that run side by side. Each shard's
// kernels run at the current worker budget: a caller that spreads an
// evaluation over its idle peers' cores sets that budget to 1 first.
// The accuracies are sums of integer counts, so they do not depend on
// shards.
func (r *recorder) eval(params []float64, shards int) (train, test float64) {
	r.net.SetParamData(params)
	parallel.ForWorkers(len(r.jobs), 1, shards, r)
	return accuracy(r.jobs[:r.nTrain]), accuracy(r.jobs[r.nTrain:])
}

// accuracy is the fraction of the jobs' samples classified correctly.
func accuracy(jobs []evalJob) float64 {
	n, correct := 0, 0
	for _, j := range jobs {
		n, correct = n+j.hi-j.lo, correct+j.correct
	}
	if n == 0 {
		return 0
	}
	return float64(correct) / float64(n)
}

// record evaluates params on shards (eval) and appends a point for the
// given epoch.
func (r *recorder) record(epoch int, params []float64, loss, simTime float64, shards int) {
	tr, te := r.eval(params, shards)
	r.mu.Lock()
	r.curve = append(r.curve, report.Point{
		Epoch:    epoch,
		Train:    tr,
		Test:     te,
		Loss:     loss,
		SimTime:  simTime,
		WallSecs: time.Since(r.start).Seconds(),
	})
	r.mu.Unlock()
}

func (r *recorder) points() report.Curve {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(report.Curve(nil), r.curve...)
}
