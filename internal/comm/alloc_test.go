package comm

import (
	"runtime/debug"
	"testing"

	"sasgd/internal/parallel"
)

// TestAllreduceSteadyStateAllocs pins the steady-state allocation count of
// every allreduce implementation to zero: after a few warm-up rounds have
// populated the group's buffer pool, repeated collectives must not touch
// the heap at all. The aggregation loop runs every T local steps for the
// whole training run, so a single stray allocation per round multiplies
// into GC pressure that the kernel benchmarks then pay for.
//
// Methodology: the group and its rank goroutines persist across rounds
// (per-rank start channels — a shared channel could hand two tokens to
// one goroutine and deadlock the round), GC is disabled so sync.Pool is
// not drained mid-measurement, and the learner budget is one worker.
// tree/p2 is the benchmark's dense message: its one partial comes back
// by reference and the root's last fold, lent the parked rank's worker,
// runs on two shards through the worker pool — that dispatch may not
// allocate either. The apply rows are the same collectives with the
// epilogue riding them (AllreduceTreeApply). AllocsPerRun counts mallocs process-wide, so the
// helper ranks' collectives are measured too, not just rank 0's.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	tree := func(g *Group, r int, b, _ []float64) { g.AllreduceTree(r, b) }
	apply := func(g *Group, r int, b, x []float64) { g.AllreduceTreeApply(r, b, x, -1e-9) }
	cases := []struct {
		name string
		p, m int
		run  func(g *Group, rank int, buf, x []float64)
	}{
		{"tree/p8", 8, 1003, tree},
		{"tree/p2", 2, 276971, tree},
		{"apply/p8", 8, 1003, apply},
		{"apply/p2", 2, 276971, apply},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroup(tc.p)
			bufs, xs := make([][]float64, tc.p), make([][]float64, tc.p)
			for r := range bufs {
				bufs[r], xs[r] = make([]float64, tc.m), make([]float64, tc.m)
				for i := range bufs[r] {
					bufs[r][i] = float64(r + i)
				}
			}
			start := make([]chan struct{}, tc.p)
			done := make(chan struct{}, tc.p)
			for r := 1; r < tc.p; r++ {
				start[r] = make(chan struct{})
				go func(r int) {
					for range start[r] {
						tc.run(g, r, bufs[r], xs[r])
						done <- struct{}{}
					}
				}(r)
			}
			round := func() {
				for r := 1; r < tc.p; r++ {
					start[r] <- struct{}{}
				}
				tc.run(g, 0, bufs[0], xs[0])
				for r := 1; r < tc.p; r++ {
					<-done
				}
			}
			for i := 0; i < 5; i++ {
				round() // warm the pool and the runtime's goroutine caches
			}
			if avg := testing.AllocsPerRun(10, round); avg != 0 {
				t.Errorf("%s: %.1f allocs per steady-state allreduce round, want 0", tc.name, avg)
			}
			for r := 1; r < tc.p; r++ {
				close(start[r])
			}
		})
	}
}

// TestSelectionSteadyStateAllocs pins the top-k selection core: once the
// selector's candidate scratch and the caller's index slice have warmed
// up, picking the k largest of n entries is O(n) time and zero
// allocations — the property that lets the codec run selection on every
// bucket of every aggregation without touching the heap.
func TestSelectionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, k = 10000, 500
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = float64((i*2654435761)%1000) - 500
	}
	var s selector
	idx := make([]int, 0, k)
	res := make([]float64, n)
	pick := func() { idx = selectInto(&s, dense, res, k, idx[:0]) }
	pick() // warm the candidate scratch
	if avg := testing.AllocsPerRun(100, pick); avg != 0 {
		t.Errorf("%.1f allocs per selection, want 0", avg)
	}
	if len(idx) != k {
		t.Fatalf("selected %d entries, want %d", len(idx), k)
	}
}

// TestCompressedSteadyStateAllocs extends the zero-alloc pin to the
// compression engine: a full compressed allreduce round — residual fold,
// selection or quantization, pooled pair/packed-integer collective,
// dense scatter — must not allocate once the codec scratch and the
// group's buffer pool have warmed up. Each round restores the gradient
// and residual from pristine copies inside the measured closure (copy
// into preallocated buffers, no heap traffic) so every round compresses
// identical data and message sizes stay fixed. Over TCP loopback the
// codec's frames are written from its own goroutine, which may not
// allocate either.
func TestCompressedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	for _, tc := range []struct {
		name  string
		codec string
		p     int
		ratio float64
		group func(t *testing.T, p int) *Group
	}{
		{"topk/p8", "topk", 8, 0.05, chanGroup},
		{"topk/p5", "topk", 5, 0.05, chanGroup},
		{"qint8/p8", "qint8", 8, 0, chanGroup},
		{"qint8/p5", "qint8", 5, 0, chanGroup},
		{"topk/p5/tcp", "topk", 5, 0.05, tcpLoopbackGroup},
		{"qint8/p5/tcp", "qint8", 5, 0, tcpLoopbackGroup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const m = 1003
			g := tc.group(t, tc.p)
			comps := make([]Compressor, tc.p)
			segs := make([][]float64, tc.p)
			ress := make([][]float64, tc.p)
			seg0 := make([][]float64, tc.p)
			res0 := make([][]float64, tc.p)
			for r := 0; r < tc.p; r++ {
				comps[r] = NewCompressor(tc.codec)
				segs[r] = make([]float64, m)
				ress[r] = make([]float64, m)
				seg0[r] = make([]float64, m)
				res0[r] = make([]float64, m)
				for i := range seg0[r] {
					seg0[r][i] = float64((r+i)%67) - 33
					res0[r][i] = float64((r*3+i)%29) * 0.01
				}
			}
			one := func(r int) {
				copy(segs[r], seg0[r])
				copy(ress[r], res0[r])
				comps[r].Allreduce(g, r, segs[r], ress[r], tc.ratio, 0, nil, 0)
			}
			start := make([]chan struct{}, tc.p)
			done := make(chan struct{}, tc.p)
			for r := 1; r < tc.p; r++ {
				start[r] = make(chan struct{})
				go func(r int) {
					for range start[r] {
						one(r)
						done <- struct{}{}
					}
				}(r)
			}
			round := func() {
				for r := 1; r < tc.p; r++ {
					start[r] <- struct{}{}
				}
				one(0)
				for r := 1; r < tc.p; r++ {
					<-done
				}
			}
			for i := 0; i < 5; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(10, round); avg != 0 {
				t.Errorf("%s: %.1f allocs per steady-state compressed round, want 0", tc.name, avg)
			}
			for r := 1; r < tc.p; r++ {
				close(start[r])
			}
		})
	}
}
