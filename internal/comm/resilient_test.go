package comm

import (
	"sync"
	"testing"
	"time"
)

// lockedClock is a mutex-guarded simulated clock: the membership ledger
// reads every rank's clock from whichever goroutine detects completion,
// so resilient tests need cross-goroutine-safe clocks (netsim's real
// clocks are locked the same way).
type lockedClock struct {
	mu  sync.Mutex
	now float64
}

func (c *lockedClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func (c *lockedClock) Sync(t float64) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// runResilient drives p learner goroutines against a ledger; fn returns
// when its learner is done (crashed learners return early).
func runResilient(p int, fn func(phys int)) {
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

// TestEvictionAndReform: a rank that goes silent is evicted, the
// survivors re-form, and collectives on the new view produce the
// survivor-only sums.
func TestEvictionAndReform(t *testing.T) {
	const p = 3
	plan := &FaultPlan{EvictAfter: 40 * time.Millisecond}
	r := NewResilient(p, plan, nil, nil, nil)
	defer r.Close()

	results := make([][]float64, p)
	oks := make([]bool, p)
	runResilient(p, func(phys int) {
		if phys == 2 {
			r.Crash(phys) // silent fail-stop before sync 0
			return
		}
		v, ok := r.Await(phys, 0)
		oks[phys] = ok
		if !ok {
			return
		}
		buf := []float64{float64(phys + 1), float64(10 * (phys + 1))}
		v.G.AllreduceTree(v.RankOf(phys), buf)
		results[phys] = buf
	})

	if !oks[0] || !oks[1] {
		t.Fatalf("survivors not ok: %v", oks)
	}
	want := []float64{3, 30} // ranks 0 and 1 only
	for _, phys := range []int{0, 1} {
		for i := range want {
			if results[phys][i] != want[i] {
				t.Errorf("phys %d sum[%d] = %g, want %g", phys, i, results[phys][i], want[i])
			}
		}
	}
	st := r.Stats()
	if st.Faults.Crashes != 1 || st.Faults.Evictions != 1 || st.Faults.Reforms != 1 {
		t.Errorf("counters = %+v, want 1 crash / 1 eviction / 1 re-form", st.Faults)
	}
	evs := r.Evictions()
	if len(evs) != 1 || evs[0].Phys != 2 || evs[0].SyncPt != 0 {
		t.Errorf("evictions = %+v, want phys 2 at sync 0", evs)
	}
}

// TestDeadRootReform: losing physical rank 0 — the root of every tree
// collective — must re-root onto the lowest survivor.
func TestDeadRootReform(t *testing.T) {
	const p = 4
	plan := &FaultPlan{EvictAfter: 40 * time.Millisecond}
	r := NewResilient(p, plan, nil, nil, nil)
	defer r.Close()

	var mu sync.Mutex
	views := map[int]View{}
	runResilient(p, func(phys int) {
		if phys == 0 {
			r.Crash(phys)
			return
		}
		v, ok := r.Await(phys, 0)
		if !ok {
			t.Errorf("survivor %d evicted", phys)
			return
		}
		buf := []float64{float64(phys)}
		v.G.AllreduceTree(v.RankOf(phys), buf)
		if buf[0] != 6 { // 1+2+3
			t.Errorf("phys %d sum = %g, want 6", phys, buf[0])
		}
		mu.Lock()
		views[phys] = v
		mu.Unlock()
	})

	for phys, v := range views {
		if v.Version != 1 || v.Size() != 3 {
			t.Errorf("phys %d view = version %d size %d, want version 1 size 3", phys, v.Version, v.Size())
		}
		if v.Phys[0] != 1 {
			t.Errorf("new virtual root is phys %d, want 1", v.Phys[0])
		}
		if got := v.RankOf(phys); v.Phys[got] != phys {
			t.Errorf("RankOf(%d) = %d maps back to %d", phys, got, v.Phys[got])
		}
	}
}

// TestFencedStragglerSeesEviction: a live rank that lags past EvictAfter
// is fenced; its next Await must report the eviction so it stops
// participating.
func TestFencedStragglerSeesEviction(t *testing.T) {
	const p = 2
	plan := &FaultPlan{EvictAfter: 20 * time.Millisecond}
	r := NewResilient(p, plan, nil, nil, nil)
	defer r.Close()

	var lateOK, fastOK bool
	runResilient(p, func(phys int) {
		if phys == 1 {
			time.Sleep(120 * time.Millisecond) // lag far past EvictAfter
			_, lateOK = r.Await(phys, 0)
			return
		}
		_, fastOK = r.Await(phys, 0)
	})
	if !fastOK {
		t.Error("fast rank should survive")
	}
	if lateOK {
		t.Error("fenced straggler's Await returned ok=true")
	}
}

// TestAwaitAlignsClocks: Await is a barrier for simulated time — every
// survivor leaves with the bulk-synchronous max, and an eviction charges
// the detection penalty.
func TestAwaitAlignsClocks(t *testing.T) {
	const p = 3
	plan := &FaultPlan{EvictAfter: 30 * time.Millisecond}
	clocks := make([]Clock, p)
	for i := range clocks {
		clocks[i] = &lockedClock{}
	}
	r := NewResilient(p, plan, clocks, FreeCost{}, nil)
	defer r.Close()

	runResilient(p, func(phys int) {
		if phys == 2 {
			r.Crash(phys)
			return
		}
		clocks[phys].Advance(float64(10 * (phys + 1))) // 10s and 20s of local work
		if _, ok := r.Await(phys, 0); !ok {
			t.Errorf("survivor %d evicted", phys)
		}
	})

	// Max survivor clock 20s + the eviction penalty.
	for _, phys := range []int{0, 1} {
		if got := clocks[phys].Now(); got != 20+simEvictSecs {
			t.Errorf("clock %d = %g, want %g (max 20 + evict penalty %g)", phys, got, 20+simEvictSecs, simEvictSecs)
		}
	}
}
