package comm

import (
	"math/rand"
	"sync"
	"testing"
)

// runGroup executes fn concurrently for every rank of a fresh group.
func runGroup(p int, g *Group, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

func TestSendRecvDelivers(t *testing.T) {
	g := NewGroup(2)
	done := make(chan []float64, 1)
	go func() { done <- g.Recv(1, 0) }()
	g.Send(0, 1, []float64{1, 2, 3})
	got := <-done
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("Recv got %v", got)
	}
}

func TestSendRecvOrderedPerPair(t *testing.T) {
	g := NewGroup(2)
	for i := 0; i < 4; i++ {
		g.Send(0, 1, []float64{float64(i)})
	}
	for i := 0; i < 4; i++ {
		if got := g.Recv(1, 0); got[0] != float64(i) {
			t.Fatalf("message %d out of order: got %v", i, got)
		}
	}
}

func TestRankValidationPanics(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send with bad rank did not panic")
		}
	}()
	g.Send(0, 5, nil)
}

func TestBroadcastTreeAllSizes(t *testing.T) {
	for p := 1; p <= 9; p++ {
		g := NewGroup(p)
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, 5)
			if r == 0 {
				for i := range bufs[0] {
					bufs[0][i] = float64(i) + 1
				}
			}
		}
		runGroup(p, g, func(rank int) { g.BroadcastTree(rank, bufs[rank]) })
		for r := 1; r < p; r++ {
			for i := range bufs[r] {
				if bufs[r][i] != bufs[0][i] {
					t.Fatalf("p=%d rank=%d: broadcast mismatch %v vs %v", p, r, bufs[r], bufs[0])
				}
			}
		}
	}
}

func TestAllreduceTreeSumsAllSizes(t *testing.T) {
	for p := 1; p <= 9; p++ {
		testAllreduce(t, p, func(g *Group, rank int, buf []float64) { g.AllreduceTree(rank, buf) })
	}
}

func testAllreduce(t *testing.T, p int, ar func(*Group, int, []float64)) {
	t.Helper()
	const n = 23 // deliberately not divisible by typical p
	g := NewGroup(p)
	rng := rand.New(rand.NewSource(int64(p)))
	bufs := make([][]float64, p)
	want := make([]float64, n)
	for r := range bufs {
		bufs[r] = make([]float64, n)
		for i := range bufs[r] {
			bufs[r][i] = rng.NormFloat64()
			want[i] += bufs[r][i]
		}
	}
	runGroup(p, g, func(rank int) { ar(g, rank, bufs[rank]) })
	for r := 0; r < p; r++ {
		for i := range want {
			if d := bufs[r][i] - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("p=%d rank=%d[%d]: got %g want %g", p, r, i, bufs[r][i], want[i])
			}
		}
	}
}

func TestWordsSentAccounting(t *testing.T) {
	p, n := 4, 10
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
	// Binomial tree: reduce moves (p-1) messages of n words, broadcast the
	// same: 2(p-1)n words total.
	want := int64(2 * (p - 1) * n)
	if got := g.WordsSent(); got != want {
		t.Errorf("WordsSent = %d, want %d", got, want)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	p := 5
	g := NewGroup(p)
	var before, after sync.WaitGroup
	before.Add(p)
	after.Add(p)
	reached := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			before.Done()
			g.Barrier(r)
			reached <- r
			after.Done()
		}(r)
	}
	before.Wait()
	after.Wait()
	if len(reached) != p {
		t.Fatalf("only %d ranks passed the barrier", len(reached))
	}
}

func TestBarrierWaitMax(t *testing.T) {
	b := NewBarrier(3)
	var wg sync.WaitGroup
	out := make([]float64, 3)
	for i, v := range []float64{1.5, 7.25, 3.0} {
		wg.Add(1)
		go func(i int, v float64) {
			defer wg.Done()
			out[i] = b.WaitMax(v)
		}(i, v)
	}
	wg.Wait()
	for i, got := range out {
		if got != 7.25 {
			t.Errorf("waiter %d got %g, want 7.25", i, got)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier(2)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		want := float64(round * 10)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if got := b.WaitMax(want - float64(i)); got != want {
					t.Errorf("round %d waiter %d: got %g want %g", round, i, got, want)
				}
			}(i)
		}
		wg.Wait()
	}
}

func TestFreeCostIsZero(t *testing.T) {
	var fc FreeCost
	if fc.XferTime(0, 1, 1000) != 0 || fc.ServerOpTime(1000, 4, 8) != 0 {
		t.Error("FreeCost charged time")
	}
}

// simpleClock for verifying collective clock synchronization.
type simpleClock struct{ now float64 }

func (c *simpleClock) Now() float64      { return c.now }
func (c *simpleClock) Advance(d float64) { c.now += d }
func (c *simpleClock) Sync(t float64) {
	if t > c.now {
		c.now = t
	}
}

// unitCost charges one second per message regardless of size.
type unitCost struct{}

func (unitCost) XferTime(int, int, int) float64     { return 1 }
func (unitCost) ServerOpTime(int, int, int) float64 { return 1 }

func TestSimulatedBroadcastSynchronizesClocks(t *testing.T) {
	p := 4
	clocks := make([]Clock, p)
	for i := range clocks {
		clocks[i] = &simpleClock{}
	}
	g := NewSimGroup(p, clocks, unitCost{})
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, 3)
	}
	runGroup(p, g, func(rank int) { g.BroadcastTree(rank, bufs[rank]) })
	// Binomial broadcast over 4 ranks: rank 1 and 2 receive at t=1 or 2,
	// rank 3 via rank 2. Root's clock never advances (senders are not
	// charged); every receiver lands at a positive integer time ≤ 2.
	if clocks[0].Now() != 0 {
		t.Errorf("root clock advanced to %g", clocks[0].Now())
	}
	for r := 1; r < p; r++ {
		if now := clocks[r].Now(); now < 1 || now > 2 {
			t.Errorf("rank %d clock = %g, want within [1,2]", r, now)
		}
	}
}

func TestSimulatedBarrierAlignsClocks(t *testing.T) {
	p := 3
	clocks := []Clock{&simpleClock{now: 1}, &simpleClock{now: 5}, &simpleClock{now: 2}}
	g := NewSimGroup(p, clocks, unitCost{})
	runGroup(p, g, func(rank int) { g.Barrier(rank) })
	for r := 0; r < p; r++ {
		if clocks[r].Now() != 5 {
			t.Errorf("rank %d clock = %g after barrier, want 5", r, clocks[r].Now())
		}
	}
}
