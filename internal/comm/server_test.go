package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestServerPushPullRoundTrip(t *testing.T) {
	init := []float64{1, 2, 3, 4, 5}
	s := NewParamServer(init, 2, nil, nil)
	grad := []float64{1, 1, 1, 1, 1}
	s.PushGrad(0, 0.5, grad)
	got := make([]float64, 5)
	s.Pull(0, got)
	for i, want := range []float64{0.5, 1.5, 2.5, 3.5, 4.5} {
		if got[i] != want {
			t.Fatalf("after push: %v", got)
		}
	}
}

func TestServerShardRanges(t *testing.T) {
	for _, nshards := range []int{1, 2, 3, 7} {
		s := NewParamServer(make([]float64, 10), nshards, nil, nil)
		if s.NumShards() != nshards {
			t.Errorf("NumShards = %d, want %d", s.NumShards(), nshards)
		}
		// Pushing a distinct gradient must hit every index exactly once.
		grad := make([]float64, 10)
		for i := range grad {
			grad[i] = float64(i)
		}
		s.PushGrad(0, 1, grad)
		got := s.Snapshot()
		for i := range got {
			if got[i] != -float64(i) {
				t.Fatalf("nshards=%d: snapshot %v", nshards, got)
			}
		}
	}
}

func TestServerMoreShardsThanParams(t *testing.T) {
	s := NewParamServer(make([]float64, 3), 8, nil, nil)
	if s.NumShards() != 3 {
		t.Errorf("shards clamped to %d, want 3", s.NumShards())
	}
}

func TestServerGenerations(t *testing.T) {
	s := NewParamServer(make([]float64, 4), 2, nil, nil)
	buf := make([]float64, 4)
	g0 := s.Pull(0, buf)
	for _, g := range g0 {
		if g != 0 {
			t.Fatalf("initial generations %v", g0)
		}
	}
	g1 := s.PushGrad(0, 1, buf)
	g2 := s.PushGrad(1, 1, buf)
	for i := range g1 {
		if g1[i] != 1 || g2[i] != 2 {
			t.Fatalf("generations after two pushes: %v then %v", g1, g2)
		}
	}
	if s.Updates() != 4 { // 2 pushes × 2 shards
		t.Errorf("Updates = %d, want 4", s.Updates())
	}
}

func TestStalenessMeasurement(t *testing.T) {
	s := NewParamServer(make([]float64, 4), 1, nil, nil)
	buf := make([]float64, 4)
	pull := s.Pull(0, buf)
	// Two foreign updates intervene.
	s.PushGrad(1, 1, buf)
	s.PushGrad(1, 1, buf)
	push := s.PushGrad(0, 1, buf)
	// push gen − pull gen − 1 (own update) = 2 foreign updates.
	if d := push[0] - pull[0] - 1; d != 2 {
		t.Errorf("staleness = %d, want 2", d)
	}
}

func TestElasticExchange(t *testing.T) {
	init := []float64{0, 0}
	s := NewParamServer(init, 1, nil, nil)
	local := []float64{10, -10}
	gens := s.Elastic(0, 0.5, local)
	// d = α(local − center) = {5, −5}; center += d, local −= d.
	got := s.Snapshot()
	if got[0] != 5 || got[1] != -5 {
		t.Fatalf("center after elastic = %v", got)
	}
	if local[0] != 5 || local[1] != -5 {
		t.Fatalf("local after elastic = %v", local)
	}
	if gens[0] != 1 {
		t.Errorf("elastic generation = %v", gens)
	}
}

func TestElasticFixedPoint(t *testing.T) {
	// When local == center the exchange moves neither.
	s := NewParamServer([]float64{3, 3}, 2, nil, nil)
	local := []float64{3, 3}
	s.Elastic(0, 0.9, local)
	if got := s.Snapshot(); local[0] != 3 || local[1] != 3 || got[0] != 3 || got[1] != 3 {
		t.Fatalf("elastic at fixed point moved: local %v, center %v", local, got)
	}
}

// TestElasticInPlaceMatchesTwoStep: moving the learner inside the
// exchange (local −= d) writes exactly the bits the two-step form wrote —
// the exchange returned d, the caller then ran local += (−1)·d — on
// signed zeros, denormals and infinities, across shard boundaries.
func TestElasticInPlaceMatchesTwoStep(t *testing.T) {
	const alpha = 0.3
	center := []float64{-0.0, 0, 0, -0.0, 1, math.Inf(-1), math.Inf(1), 5e-324, -2, 7.25}
	local := []float64{0, -0.0, -0.0, 5e-324, math.Inf(1), 1, math.Inf(-1), -5e-324, 3e-310, -1e300}
	wantCenter := append([]float64(nil), center...)
	wantLocal := append([]float64(nil), local...)
	d := make([]float64, len(local))
	for i := range d {
		d[i] = alpha * (wantLocal[i] - wantCenter[i])
		wantCenter[i] += d[i]
	}
	axpy(-1, d, wantLocal)

	s := NewParamServer(center, 3, nil, nil)
	s.Elastic(0, alpha, local)
	for i, got := range s.Snapshot() {
		if math.Float64bits(got) != math.Float64bits(wantCenter[i]) {
			t.Errorf("center[%d] = %v (%#x), two-step %v (%#x)", i, got, math.Float64bits(got), wantCenter[i], math.Float64bits(wantCenter[i]))
		}
		if math.Float64bits(local[i]) != math.Float64bits(wantLocal[i]) {
			t.Errorf("local[%d] = %v (%#x), two-step %v (%#x)", i, local[i], math.Float64bits(local[i]), wantLocal[i], math.Float64bits(wantLocal[i]))
		}
	}
}

// axpy is y += a·x as the learner's side of the two-step exchange ran it,
// out of line so the compiler sees a runtime a.
//
//go:noinline
func axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

func TestServerConcurrentPushes(t *testing.T) {
	// p goroutines pushing concurrently: the final parameters must equal
	// the serial sum (addition commutes), and generations must total p
	// per shard.
	const p, m = 8, 64
	s := NewParamServer(make([]float64, m), 4, nil, nil)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			grad := make([]float64, m)
			for i := range grad {
				grad[i] = rng.NormFloat64()
			}
			s.PushGrad(r, 0.1, grad)
		}(r)
	}
	wg.Wait()
	want := make([]float64, m)
	for r := 0; r < p; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		for i := range want {
			want[i] -= 0.1 * rng.NormFloat64()
		}
	}
	got := s.Snapshot()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("concurrent pushes diverge at %d: %g vs %g", i, got[i], want[i])
		}
	}
	if s.Updates() != p*4 {
		t.Errorf("Updates = %d, want %d", s.Updates(), p*4)
	}
}

func TestElasticConcurrentConservesMass(t *testing.T) {
	// p learners exchanging concurrently, each with its own vector: every
	// exchange moves d from a learner to the center, so center + Σ locals
	// is conserved (up to rounding), and generations total rounds·p per
	// shard.
	const p, m, shards, rounds = 8, 64, 4, 20
	s := NewParamServer(make([]float64, m), shards, nil, nil)
	locals := make([][]float64, p)
	want := make([]float64, m)
	for r := range locals {
		rng := rand.New(rand.NewSource(int64(r)))
		locals[r] = make([]float64, m)
		for i := range locals[r] {
			locals[r][i] = rng.NormFloat64()
			want[i] += locals[r][i]
		}
	}
	var wg sync.WaitGroup
	for r := range locals {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				s.Elastic(r, 0.9/p, locals[r])
			}
		}(r)
	}
	wg.Wait()
	got := s.Snapshot()
	for _, local := range locals {
		for i, v := range local {
			got[i] += v
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("center + locals at %d: %g, want %g", i, got[i], want[i])
		}
	}
	if s.Updates() != p*rounds*shards {
		t.Errorf("Updates = %d, want %d", s.Updates(), p*rounds*shards)
	}
}

func TestServerLengthMismatchPanics(t *testing.T) {
	s := NewParamServer(make([]float64, 4), 1, nil, nil)
	for name, fn := range map[string]func(){
		"push":    func() { s.PushGrad(0, 1, make([]float64, 3)) },
		"pull":    func() { s.Pull(0, make([]float64, 5)) },
		"elastic": func() { s.Elastic(0, 0.5, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with wrong length did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// fixedCost charges one second per server op and nothing for transfers,
// making clock accounting easy to assert.
type fixedCost struct{}

func (fixedCost) XferTime(int, int, int) float64     { return 0 }
func (fixedCost) ServerOpTime(int, int, int) float64 { return 1 }

type recClock struct{ now, comm float64 }

func (c *recClock) Now() float64       { return c.now }
func (c *recClock) Advance(dt float64) { c.now += dt }
func (c *recClock) Sync(t float64) {
	if t > c.now {
		c.comm += t - c.now
		c.now = t
	}
}

func TestServerChargesClock(t *testing.T) {
	clk := &recClock{}
	s := NewParamServer(make([]float64, 4), 2, []Clock{clk}, fixedCost{})
	buf := make([]float64, 4)
	s.PushGrad(0, 1, buf)  // 1 op
	s.Pull(0, buf)         // 1 op
	s.Elastic(0, 0.5, buf) // 2 ops
	if clk.comm != 4 {
		t.Errorf("clock charged %g seconds, want 4", clk.comm)
	}
}
