package comm

import (
	"math/rand"
	"testing"
)

// makeBufs returns p random length-m buffers (deterministic in p, m) plus
// their elementwise monolithic binomial-tree allreduce result, computed
// through the real collective so it carries the tree's exact summation
// order.
func makeBufs(p, m int, seed int64) (bufs [][]float64, treeSum []float64) {
	rng := rand.New(rand.NewSource(seed))
	orig := make([][]float64, p)
	for r := range orig {
		orig[r] = make([]float64, m)
		for i := range orig[r] {
			orig[r][i] = rng.NormFloat64()
		}
	}
	ref := cloneBufs(orig)
	g := NewGroup(p)
	runGroup(p, g, func(rank int) { g.AllreduceTree(rank, ref[rank]) })
	return orig, ref[0]
}

func cloneBufs(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i := range src {
		out[i] = append([]float64(nil), src[i]...)
	}
	return out
}

// TestAllreduceAlgorithmsEquivalent checks every allreduce implementation
// against the monolithic binomial tree across group sizes (including
// non-powers of two) and message lengths not divisible by p or by the
// chunk size. The chunked pipelined tree preserves the tree's summation
// order and must agree bit for bit at every chunk size.
func TestAllreduceAlgorithmsEquivalent(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, m := range []int{1, 5, 23, 64, 129} {
			orig, want := makeBufs(p, m, int64(1000*p+m))
			for _, chunk := range []int{1, 3, 7, 16, m + 1} {
				got := cloneBufs(orig)
				g := NewGroup(p)
				runGroup(p, g, func(rank int) { g.AllreduceTreeChunked(rank, got[rank], chunk) })
				for r := 0; r < p; r++ {
					for i := range want {
						if got[r][i] != want[i] {
							t.Fatalf("p=%d m=%d chunk=%d rank=%d[%d]: ptree %g != tree %g (must be bitwise)",
								p, m, chunk, r, i, got[r][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestChunkedTreeMatchesMonolithicTraffic: chunking changes the message
// schedule, not the volume.
func TestChunkedTreeMatchesMonolithicTraffic(t *testing.T) {
	p, m, chunk := 4, 50, 7
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
	}
	g := NewGroup(p)
	runGroup(p, g, func(rank int) { g.AllreduceTreeChunked(rank, bufs[rank], chunk) })
	want := int64(2 * (p - 1) * m)
	if got := g.WordsSent(); got != want {
		t.Errorf("chunked tree WordsSent = %d, want %d", got, want)
	}
}

// TestChunkedTreePipelinesSimulatedTime: under a simulated fabric whose
// links serialize successive chunks, the pipelined tree's completion time
// must beat the monolithic tree's strictly leveled schedule (the whole
// point of chunking) on a bandwidth-dominated transfer.
func TestChunkedTreePipelinesSimulatedTime(t *testing.T) {
	const p, m = 8, 1 << 16
	run := func(chunk int) float64 {
		clocks := make([]Clock, p)
		for i := range clocks {
			clocks[i] = &simpleClock{}
		}
		// 1 second per word, no latency: pure bandwidth pipeline.
		g := NewSimGroup(p, clocks, wordCost{})
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, m)
		}
		runGroup(p, g, func(rank int) { g.AllreduceTreeChunked(rank, bufs[rank], chunk) })
		max := 0.0
		for _, c := range clocks {
			if c.Now() > max {
				max = c.Now()
			}
		}
		return max
	}
	mono := run(m)       // single chunk = monolithic schedule
	piped := run(m / 64) // 64-stage pipeline
	if piped >= mono*0.75 {
		t.Errorf("pipelined allreduce not faster: chunked %.0f vs monolithic %.0f simulated seconds", piped, mono)
	}
}

// wordCost charges one simulated second per word and nothing for latency.
type wordCost struct{}

func (wordCost) XferTime(_, _ int, words int) float64 { return float64(words) }
func (wordCost) ServerOpTime(int, int, int) float64   { return 0 }
