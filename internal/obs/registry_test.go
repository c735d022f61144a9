package obs

import (
	"sync"
	"testing"
)

// The disabled path is the contract every instrumented hot path relies
// on: every method of every instrument must be a safe no-op on nil,
// with zero allocations (the AllocsPerRun pin scripts/check.sh runs).
func TestNilRegistryIsSafeAndFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	ring := r.Ring("s", 0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(1)
		g.SetInt(2)
		ring.RecordAt(0, 5)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocates %.1f per round, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || ring.Len() != 0 {
		t.Fatal("nil instruments reported non-zero state")
	}
	if r.Snapshot() != nil || r.Events() != nil || r.Fleet() != nil {
		t.Fatal("nil registry returned state")
	}
	r.Events().Emit(Event{Type: EventBoundary})
	var f *Fleet
	f.Ingest(0, nil)
	if f.Snapshot() != nil {
		t.Fatal("nil fleet returned state")
	}
}

// The enabled record path must also stay alloc-free: counters and
// gauges are plain atomics, the ring writes preallocated slots.
func TestRegistryRecordIsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	ring := r.Ring("s", 64)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2.5)
		ring.RecordAt(1, 1)
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics record allocates %.1f per round, want 0", allocs)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Add(41)
	c.Inc()
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if c2 := r.Counter("reqs"); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	if c3 := r.Counter("reqs_other"); c3 == c {
		t.Fatal("a different name returned the same counter")
	}
	g := r.Gauge("temp")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %g, want 7", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("x")
}

func TestSampleRingStampsAndWrap(t *testing.T) {
	ring := NewRegistry().Ring("drift", 4)
	for i := 0; i < 6; i++ {
		ring.RecordAt(int64(10*(i+1)), float64(i))
	}
	if ring.Len() != 6 {
		t.Fatalf("len = %d, want 6", ring.Len())
	}
	stamps, vals := ring.Samples()
	if len(vals) != 4 {
		t.Fatalf("retained %d samples, want 4", len(vals))
	}
	// Oldest-first after the wrap: samples 2..5 at stamps 30..60.
	for i := range vals {
		if vals[i] != float64(i+2) || stamps[i] != int64(30+10*i) {
			t.Fatalf("sample %d = (%d, %g), want (%d, %g)", i, stamps[i], vals[i], 30+10*i, float64(i+2))
		}
	}
}

// Concurrent registration and recording from many goroutines: the
// race-detector leg in scripts/check.sh runs this with -race. Every
// goroutine must get the same instrument for the same name and no
// update may be lost.
func TestConcurrentRegistryWrites(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			own := r.Counter("rank_total_" + string(rune('0'+g)))
			gauge := r.Gauge("shared_gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				own.Inc()
				gauge.Set(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter("rank_total_" + string(rune('0'+g))).Value(); got != perG {
			t.Fatalf("rank %d counter = %d, want %d", g, got, perG)
		}
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1.5)
	r.Ring("s", 8).RecordAt(3, 9)
	s := r.Snapshot()
	if s.Counters["c"] != 2 || s.Gauges["g"] != 1.5 {
		t.Fatalf("snapshot = %+v", s)
	}
	ss, ok := s.Series["s"]
	if !ok || ss.Len != 1 || len(ss.Values) != 1 || ss.Values[0] != 9 || ss.Stamps[0] != 3 {
		t.Fatalf("series snapshot = %+v", ss)
	}
}
