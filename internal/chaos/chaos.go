// Package chaos is the deterministic fault-injection test harness: it
// runs small SASGD training scenarios under seeded comm.FaultPlans
// (stragglers, message drops, scheduled crashes) and exposes the
// observables the chaos tests assert on — per-boundary aggregated
// gradients (via core.Config.AggHook), fault counters, and checkpoint
// files for survivor-equivalence reference runs. Everything is
// reproducible from the plan's seed: a scenario either always passes or
// always fails, which is what makes failure-handling testable at all.
//
// The harness's central assertion pattern is survivor equivalence:
// because drops, delays and slowdowns never change values (acknowledged
// delivery is value-transparent, slowdowns only move time), and because
// a crash at boundary b leaves the survivors exactly in the state a
// fault-free run over the same ranks resumed from the boundary-b
// checkpoint would be in, the degraded run's post-eviction aggregated
// gradients — and its final parameters — must be bitwise identical to
// that reference run's. The chaos tests enforce exactly that.
package chaos

import (
	"math/rand"
	"sort"
	"sync"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// GradLog records every aggregation boundary's post-allreduce
// aggregated gradient. Wire its Hook into core.Config.AggHook; the
// mutex makes it safe across the view changes that move virtual rank 0
// between goroutines.
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
	// of the in-process channel fabric: every drop, retry, crash and
	// re-form plays out over real sockets and the wire codec. The
	// scenario's observables must not change — that is the
	// cross-transport guarantee the chaos tests replay.
	TCP bool
}

// Run executes the scenario against prob and returns the training
// result plus the per-boundary aggregated-gradient log.
func (s Scenario) Run(prob *core.Problem) (*core.Result, *GradLog) {
	var plan *comm.FaultPlan
	if s.Spec != "" {
		var err error
		if plan, err = comm.ParseFaultPlan(s.Spec); err != nil {
			panic(err)
		}
	}
	log := NewGradLog()
	var tr comm.Transport
	if s.TCP {
		tcp, err := comm.NewTCPLoopback(s.P)
		if err != nil {
			panic(err)
		}
		defer tcp.Close() // idempotent; a membership run closes it first
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
	return core.Train(cfg, prob), log
}

// Synthetic builds a fast, separable 4-feature 3-class problem with a
// small two-layer model — deterministic in seed, cheap enough that a
// whole scenario table runs under the race detector in seconds.
func Synthetic(nTrain, nTest int, seed int64) *core.Problem {
	gen := func(n int, seed int64) *data.Dataset {
		rng := rand.New(rand.NewSource(seed))
		d := &data.Dataset{
			X:           tensor.New(n, 4),
			Y:           make([]int, n),
			SampleShape: []int{4},
			Classes:     3,
		}
		for i := 0; i < n; i++ {
			k := rng.Intn(3)
			d.Y[i] = k
			for j := 0; j < 4; j++ {
				v := rng.NormFloat64() * 0.4
				if j == k {
					v += 2
				}
				d.X.Data[i*4+j] = v
			}
		}
		return d
	}
	return &core.Problem{
		Name: "chaos-synthetic",
		Model: func(seed int64) *nn.Network {
			rng := rand.New(rand.NewSource(seed))
			return nn.NewNetwork([]int{4},
				nn.NewLinear(rng, 4, 8),
				nn.NewTanh(),
				nn.NewLinear(rng, 8, 3),
			)
		},
		Train: gen(nTrain, seed),
		Test:  gen(nTest, seed+1),
	}
}
