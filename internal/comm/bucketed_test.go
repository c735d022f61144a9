package comm

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"sasgd/internal/parallel"
)

// bucketPartitions returns the bucket partitions the equivalence tests
// sweep for an m-word buffer: one bucket, a few uneven buckets, and a
// many-bucket split — the shapes core produces for bucket counts
// {1, 3, layers}.
func bucketPartitions(m int) [][]Segment {
	parts := [][]Segment{{{0, m}}}
	if m >= 3 {
		third := m / 3
		parts = append(parts, []Segment{
			{0, third},
			{third, third},
			{2 * third, m - 2*third},
		})
	}
	if m >= 8 {
		var many []Segment
		for off := 0; off < m; {
			n := 1 + (off*7)%5 // 1..5 words, deterministic and uneven
			if off+n > m {
				n = m - off
			}
			many = append(many, Segment{off, n})
			off += n
		}
		parts = append(parts, many)
	}
	return parts
}

// runBucketed runs one full bucketed allreduce round on every rank of g:
// buckets submitted in reverse segment order (the backward pass's layer
// finalization order), all handles waited, worker closed. ready gives the
// per-bucket entry stamp.
func runBucketed(p int, g *Group, bufs [][]float64, segs []Segment, ready func(bucket int) float64) {
	runGroup(p, g, func(rank int) {
		b := NewBucketedAllreduce(g, rank, segs)
		handles := make([]Handle, len(segs))
		for i := len(segs) - 1; i >= 0; i-- {
			r := 0.0
			if ready != nil {
				r = ready(i)
			}
			handles[i] = b.Begin(i, bufs[rank], r)
		}
		for i := range handles {
			handles[i].Wait()
		}
		b.Close()
	})
}

// TestBucketedAllreduceBitwiseMatchesTree pins the tentpole determinism
// claim: at every bucket partition and group size, the concatenation of
// per-bucket tree allreduces is bitwise identical to the whole-buffer
// tree — the binomial tree's per-element summation order depends only on
// the rank tree, never on segment boundaries.
func TestBucketedAllreduceBitwiseMatchesTree(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, m := range []int{1, 23, 129} {
			orig, want := makeBufs(p, m, int64(7000*p+m))
			for pi, segs := range bucketPartitions(m) {
				got := cloneBufs(orig)
				g := NewGroup(p)
				runBucketed(p, g, got, segs, nil)
				for r := 0; r < p; r++ {
					for i := range want {
						if got[r][i] != want[i] {
							t.Fatalf("p=%d m=%d part=%d rank=%d[%d]: bucketed %g != tree %g (must be bitwise)",
								p, m, pi, r, i, got[r][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBucketedAllreduceMatchesMonolithicTraffic: bucketing changes the
// schedule, not the wire volume — still 2(p−1)m words group-wide for the
// tree family.
func TestBucketedAllreduceMatchesMonolithicTraffic(t *testing.T) {
	p, m := 5, 120
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
	}
	g := NewGroup(p)
	runBucketed(p, g, bufs, bucketPartitions(m)[1], nil)
	want := int64(2 * (p - 1) * m)
	if got := g.WordsSent(); got != want {
		t.Errorf("bucketed tree WordsSent = %d, want %d", got, want)
	}
}

// TestBucketedConcurrentHandleStress hammers the handle lifecycle under
// the race detector: many rounds of submit-all-then-wait with fresh
// random data, each round's result checked
// bitwise against the monolithic tree. check.sh runs this twice with
// -race via the Bucketed pattern.
func TestBucketedConcurrentHandleStress(t *testing.T) {
	const p, m, rounds = 5, 97, 30
	segs := bucketPartitions(m)[2] // many small uneven buckets
	rng := rand.New(rand.NewSource(11))
	g := NewGroup(p)

	for round := 0; round < rounds; round++ {
		orig := make([][]float64, p)
		for r := range orig {
			orig[r] = make([]float64, m)
			for i := range orig[r] {
				orig[r][i] = rng.NormFloat64()
			}
		}
		want := cloneBufs(orig)
		gw := NewGroup(p)
		runGroup(p, gw, func(rank int) { gw.AllreduceTree(rank, want[rank]) })

		got := cloneBufs(orig)
		runGroup(p, g, func(rank int) {
			b := NewBucketedAllreduce(g, rank, segs)
			handles := make([]Handle, len(segs))
			for i := len(segs) - 1; i >= 0; i-- {
				handles[i] = b.Begin(i, got[rank], 0)
			}
			for i := range handles {
				handles[i].Wait()
			}
			b.Close()
		})
		for r := 0; r < p; r++ {
			for i := range want[0] {
				if got[r][i] != want[0][i] {
					t.Fatalf("round %d rank=%d[%d]: %g != %g",
						round, r, i, got[r][i], want[0][i])
				}
			}
		}
	}
}

// TestBucketedOverlapEarlierReadyFinishesEarlier is the simulated-fabric
// payoff test: stamping each bucket with its layer's backward-completion
// time (instead of the learner's end-of-batch clock) must strictly shrink
// the fleet's completion time on a bandwidth-dominated fabric, because
// early buckets' transfers occupy the links while the rest of the
// backward pass is still "computing".
func TestBucketedOverlapEarlierReadyFinishesEarlier(t *testing.T) {
	const p, m = 8, 1 << 14
	const batchEnd = 1 << 15 // simulated seconds of backward compute
	segs := []Segment{{0, m / 4}, {m / 4, m / 4}, {m / 2, m / 4}, {3 * m / 4, m / 4}}

	run := func(ready func(bucket int) float64) float64 {
		clocks := make([]Clock, p)
		for i := range clocks {
			clocks[i] = &simpleClock{now: 0}
		}
		g := NewSimGroup(p, clocks, wordCost{})
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, m)
		}
		runBucketed(p, g, bufs, segs, ready)
		max := 0.0
		for _, c := range clocks {
			if c.Now() > max {
				max = c.Now()
			}
		}
		return max
	}

	serial := run(func(int) float64 { return batchEnd })
	// Backward finalizes the last bucket first: launched first, ready
	// earliest; bucket 0 is ready only at the end of the pass.
	n := len(segs)
	overlapped := run(func(i int) float64 {
		return batchEnd * float64(n-1-i) / float64(n)
	})
	if overlapped >= serial {
		t.Errorf("overlap-stamped completion %.0f not below end-of-batch-stamped %.0f simulated seconds",
			overlapped, serial)
	}
}

// TestBucketedAllreduceSteadyStateAllocs pins the steady-state allocation
// count of a full bucketed round — Begin all buckets, Wait all handles —
// to zero: ops are preallocated per bucket, handles are values over
// long-lived channels, and the per-bucket collectives run on the group's
// pooled buffers. Methodology follows TestAllreduceSteadyStateAllocs.
func TestBucketedAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	const p, m = 8, 1003
	segs := []Segment{{0, 400}, {400, 350}, {750, 253}}
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
		for i := range bufs[r] {
			bufs[r][i] = float64(r + i)
		}
	}
	workers := make([]*BucketedAllreduce, p)
	handles := make([][]Handle, p)
	for r := 0; r < p; r++ {
		workers[r] = NewBucketedAllreduce(g, r, segs)
		handles[r] = make([]Handle, len(segs))
	}
	rankRound := func(r int) {
		for i := len(segs) - 1; i >= 0; i-- {
			handles[r][i] = workers[r].Begin(i, bufs[r], 0)
		}
		for i := range handles[r] {
			handles[r][i].Wait()
		}
	}
	start := make([]chan struct{}, p)
	done := make(chan struct{}, p)
	for r := 1; r < p; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				rankRound(r)
				done <- struct{}{}
			}
		}(r)
	}
	round := func() {
		for r := 1; r < p; r++ {
			start[r] <- struct{}{}
		}
		rankRound(0)
		for r := 1; r < p; r++ {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	// The worker overlap makes the peak number of simultaneously in-flight
	// wire buffers schedule-dependent: a measured round can discover a new
	// in-flight peak warmup never reached and allocate once to cover it.
	// Pre-provision every size class the round's messages use up to the
	// mailbox-capacity bound on in-flight messages, so supply covers any
	// schedule and the pin measures steady-state behavior, not peak
	// discovery.
	inflightBound := p*(p-1)*mailboxCap + 4*p
	for _, words := range []int{400, 350, 253} {
		prefill := make([]*poolBuf, inflightBound)
		for i := range prefill {
			prefill[i] = g.acquire(words)
		}
		for _, pb := range prefill {
			g.releaseMsg(Frame{pb: pb})
		}
	}
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Errorf("%.1f allocs per steady-state bucketed round, want 0", avg)
	}
	for r := 1; r < p; r++ {
		close(start[r])
	}
	for r := 0; r < p; r++ {
		workers[r].Close()
	}
}
