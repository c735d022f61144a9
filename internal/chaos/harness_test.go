// The chaos tests are the deterministic fault-injection harness: they
// run small SASGD training scenarios under comm.FaultPlans (stragglers
// and scheduled crashes) and assert on their observables — per-boundary
// aggregated gradients (via core.Config.AggHook), the error a crash
// ends its run with, and the checkpoint files the restart resumes from.
// Everything is reproducible from the plan and the run's seed: a
// scenario either always passes or always fails, which is what makes
// failure handling testable at all.
//
// The harness's central assertion pattern is restart equivalence. A
// slowdown never changes values (it only moves time), so a straggler
// run must be bitwise the fault-free run. A crash at boundary b ends
// its run with the crashing rank's error, after the checkpoints of
// boundaries 1..b that a fault-free run writes too, byte for byte;
// SASGD is bulk-synchronous, so the boundary-b checkpoint is a
// consistent cut, and the survivors resumed from it must be bitwise the
// same restart whatever transport carries it. The directory holds tests
// only: nothing outside them runs a scenario.
package chaos

import (
	"sort"
	"sync"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/obs"
)

// GradLog records every aggregation boundary's post-allreduce
// aggregated gradient. Wire its Hook into core.Config.AggHook; the
// mutex makes it safe whichever goroutine calls it.
type GradLog struct {
	mu  sync.Mutex
	agg map[int][]float64
}

// NewGradLog returns an empty log.
func NewGradLog() *GradLog { return &GradLog{agg: map[int][]float64{}} }

// Hook is the core.Config.AggHook adapter: it copies and stores the
// boundary's aggregated gradient.
func (l *GradLog) Hook(boundary int, gs []float64) {
	cp := append([]float64(nil), gs...)
	l.mu.Lock()
	l.agg[boundary] = cp
	l.mu.Unlock()
}

// At returns the aggregated gradient recorded for a boundary (nil when
// the boundary never aggregated).
func (l *GradLog) At(boundary int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agg[boundary]
}

// Boundaries returns the recorded boundary indices in ascending order.
func (l *GradLog) Boundaries() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(l.agg))
	for b := range l.agg {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Scenario is one chaos experiment: a SASGD run shape plus a fault
// plan, with optional checkpointing, resume, and tracing.
type Scenario struct {
	Name   string
	Spec   string // comm.ParseFaultPlan grammar; "" = fault-free
	P      int    // learners
	T      int    // aggregation interval
	Batch  int
	Epochs int
	Seed   int64

	Checkpoint  string // checkpoint path ("%d" keeps one file per boundary)
	Resume      string // checkpoint to resume from
	ResumeRanks []int  // data-physical ranks this run's learners play
	Tracer      *obs.Tracer

	// TCP routes the run's frames through a loopback TCP mesh instead
	// of the in-process channel fabric: a crash unwinds its peers over
	// real sockets, and a restart runs over the wire codec. The
	// scenario's observables must not change — that is the
	// cross-transport guarantee the chaos tests replay.
	TCP bool
}

// Run executes the scenario against prob and returns the training
// result plus the per-boundary aggregated-gradient log, or the error of
// a bad Spec, a mesh that could not be built or a run that failed.
func (s Scenario) Run(prob *core.Problem) (*core.Result, *GradLog, error) {
	var plan *comm.FaultPlan
	if s.Spec != "" {
		var err error
		if plan, err = comm.ParseFaultPlan(s.Spec); err != nil {
			return nil, nil, err
		}
	}
	log := NewGradLog()
	var tr comm.Transport
	if s.TCP {
		tcp, err := comm.NewTCPLoopback(s.P)
		if err != nil {
			return nil, nil, err
		}
		defer tcp.Close() // idempotent; a failed run closes it first
		tr = tcp
	}
	cfg := core.Config{
		Algo:      core.AlgoSASGD,
		Learners:  s.P,
		Interval:  s.T,
		Batch:     s.Batch,
		Epochs:    s.Epochs,
		Gamma:     0.05,
		Seed:      s.Seed,
		Faults:    plan,
		Transport: tr,

		CheckpointPath: s.Checkpoint,
		ResumeFrom:     s.Resume,
		ResumeRanks:    s.ResumeRanks,
		AggHook:        log.Hook,
		Tracer:         s.Tracer,
	}
	res, err := core.Run(cfg, prob)
	return res, log, err
}
