package comm

import (
	"fmt"
	"sync"
)

// ParamServer is the (optionally sharded) central parameter store that
// Downpour and EAMSGD aggregate through. Parameters are split into
// contiguous shards; each shard applies requests under its own lock, so
// a learner's Pull is not an atomic snapshot across shards — the
// cross-shard inconsistency the paper attributes to sharded servers —
// and per-shard update generations make gradient staleness measurable.
//
// When built with clocks and a cost model, every push/pull charges the
// issuing learner one ServerOpTime: an analytic steady-state cost
// covering the host-link transfer (shared by all learners), the
// serialized per-shard aggregation work, and the expected queueing
// behind the other learners. The analytic form keeps simulated time
// deterministic per learner regardless of goroutine scheduling.
type ParamServer struct {
	shards []*shard
	m      int
	clocks []Clock
	cost   CostModel
}

type shard struct {
	mu      sync.Mutex
	lo, hi  int       // parameter range [lo, hi)
	params  []float64 // authoritative values for the range
	updates int64     // completed gradient applications
}

// NewParamServer returns a server over m parameters split into nshards
// contiguous shards, initialized from init (copied). clocks/cost may be
// nil for an un-simulated server; when set, len(clocks) defines the
// contention level of the cost model.
func NewParamServer(init []float64, nshards int, clocks []Clock, cost CostModel) *ParamServer {
	m := len(init)
	if nshards <= 0 {
		panic(fmt.Sprintf("comm: NewParamServer with %d shards", nshards))
	}
	if nshards > m {
		nshards = m
	}
	s := &ParamServer{m: m, clocks: clocks, cost: cost}
	for i := 0; i < nshards; i++ {
		lo := i * m / nshards
		hi := (i + 1) * m / nshards
		sh := &shard{lo: lo, hi: hi, params: make([]float64, hi-lo)}
		copy(sh.params, init[lo:hi])
		s.shards = append(s.shards, sh)
	}
	return s
}

// chargeOp bills one complete push or pull of the full model to the
// learner's clock as communication time.
func (s *ParamServer) chargeOp(learner int) {
	if s.clocks == nil || s.cost == nil {
		return
	}
	c := s.clocks[learner]
	c.Sync(c.Now() + s.cost.ServerOpTime(s.m, len(s.shards), len(s.clocks)))
}

// PushGrad applies x ← x − γ·grad to the server's parameters, shard by
// shard, on behalf of the given learner. grad must cover all m
// parameters. Returns the per-shard update generation after applying,
// which callers difference against Pull generations to measure
// staleness.
func (s *ParamServer) PushGrad(learner int, gamma float64, grad []float64) []int64 {
	if len(grad) != s.m {
		panic(fmt.Sprintf("comm: PushGrad length %d, want %d", len(grad), s.m))
	}
	gens := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		g := grad[sh.lo:sh.hi]
		for j, v := range g {
			sh.params[j] -= gamma * v
		}
		sh.updates++
		gens[i] = sh.updates
		sh.mu.Unlock()
	}
	s.chargeOp(learner)
	return gens
}

// Pull copies the server's current parameters into dst (length m) on
// behalf of the given learner and returns the per-shard update
// generations observed. Because shards are read independently, the copy
// is not an atomic snapshot — deliberately mirroring sharded-server
// inconsistency.
func (s *ParamServer) Pull(learner int, dst []float64) []int64 {
	if len(dst) != s.m {
		panic(fmt.Sprintf("comm: Pull length %d, want %d", len(dst), s.m))
	}
	gens := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		copy(dst[sh.lo:sh.hi], sh.params)
		gens[i] = sh.updates
		sh.mu.Unlock()
	}
	s.chargeOp(learner)
	return gens
}

// Elastic performs EAMSGD's elastic-averaging exchange on behalf of the
// given learner and moves local in place: for each parameter,
// d = α·(local − center), then center += d and local −= d, atomically
// per shard. The returned generations play the same staleness-accounting
// role as in PushGrad.
func (s *ParamServer) Elastic(learner int, alpha float64, local []float64) []int64 {
	if len(local) != s.m {
		panic(fmt.Sprintf("comm: Elastic length %d, want %d", len(local), s.m))
	}
	gens := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		x := local[sh.lo:sh.hi]
		for j, c := range sh.params {
			d := alpha * (x[j] - c)
			sh.params[j] = c + d
			x[j] -= d
		}
		sh.updates++
		gens[i] = sh.updates
		sh.mu.Unlock()
	}
	// The elastic exchange moves the model both ways: bill it as two
	// operations (the equivalent of a push and a pull).
	s.chargeOp(learner)
	s.chargeOp(learner)
	return gens
}
