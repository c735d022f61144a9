package comm

import (
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
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

// span is one [off, off+n) range of a flat buffer.
type span struct{ off, n int }

// chunkSpans cuts an m-word buffer into w-word spans (the last one
// short).
func chunkSpans(m, w int) []span {
	var spans []span
	for off := 0; off < m; off += w {
		spans = append(spans, span{off, min(w, m-off)})
	}
	return spans
}

// runSpans sums every rank's buffer piecewise: one tree allreduce per
// span, last span first.
func runSpans(p int, g *Group, bufs [][]float64, spans []span) {
	runGroup(p, g, func(rank int) {
		for i := len(spans) - 1; i >= 0; i-- {
			s := spans[i]
			g.AllreduceTree(rank, bufs[rank][s.off:s.off+s.n])
		}
	})
}

// TestAllreduceAlgorithmsEquivalent checks a buffer summed piecewise
// against the whole-buffer tree across group sizes (including
// non-powers of two) and message lengths not divisible by p or by the
// piece width. Each piece replays the tree's summation order on its own
// slice, so the two must agree bit for bit at every width: where a
// buffer is cut never moves a value.
func TestAllreduceAlgorithmsEquivalent(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, m := range []int{1, 5, 23, 64, 129} {
			orig, want := makeBufs(p, m, int64(1000*p+m))
			for _, w := range []int{1, 3, 7, 16, m + 1} {
				got := cloneBufs(orig)
				runSpans(p, NewGroup(p), got, chunkSpans(m, w))
				for r := 0; r < p; r++ {
					for i := range want {
						if got[r][i] != want[i] {
							t.Fatalf("p=%d m=%d width=%d rank=%d[%d]: piecewise %g != tree %g (must be bitwise)",
								p, m, w, r, i, got[r][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAllreduceTreeApplyMatchesTreeAxpy is the apply epilogue's
// differential: x after AllreduceTreeApply(buf, x, a) must be, bit for
// bit, x after AllreduceTree(buf) and tensor.Axpy(a, buf, x) — at group
// sizes with no, one and two levels of interior members, at lengths
// either side of reduceGrain and past two of them (sharded folds and
// epilogues; the budget is raised so they shard on a one-core host
// too), on the channel fabric (by-reference partials: the epilogue
// runs in the root's last fold and in the parents' writes) and on TCP
// loopback (pooled frames: in the adopts and, at the root, after the
// send), with the root's last fold lent the parked members' workers and
// not. Sum and target operands carry ±0, denormals, ±Inf and NaN, so
// bits are compared, not values.
func TestAllreduceTreeApplyMatchesTreeAxpy(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	const a = -0.3125
	for _, tc := range transportCases() {
		for _, p := range []int{1, 2, 3, 4, 5, 8} {
			for _, m := range []int{1, 7, reduceGrain - 1, reduceGrain + 1, 2*reduceGrain + 3} {
				orig, _ := makeBufs(p, m, int64(9000*p+m))
				spikeSpecials(orig)
				x0, _ := makeBufs(p, m, int64(9100*p+m))
				spikeSpecials(x0)
				want := cloneBufs(x0)
				sums := cloneBufs(orig)
				g := tc.make(t, p)
				runGroup(p, g, func(r int) {
					g.AllreduceTree(r, sums[r])
					tensor.Axpy(a, sums[r], want[r])
				})
				// allLocal is what lends the root's last fold the
				// parked members' workers; the test runs no barrier.
				for _, lend := range []bool{true, false} {
					g.allLocal = lend
					bufs, x := cloneBufs(orig), cloneBufs(x0)
					runGroup(p, g, func(r int) { g.AllreduceTreeApply(r, bufs[r], x[r], a) })
					for r := range x {
						for i := range x[r] {
							if got, w := math.Float64bits(x[r][i]), math.Float64bits(want[r][i]); got != w {
								t.Fatalf("%s p=%d m=%d lend=%v rank %d x[%d]: apply %#x != tree+axpy %#x (must be bitwise)",
									tc.name, p, m, lend, r, i, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestDenseOwnership: after every dense collective on the channel
// fabric — where partials travel by reference — each member's buffer is
// its own memory and holds the sum. Each round overwrites one member's
// buffer, checks that no other member's buffer moved with it, then runs
// the next collective over what the buffers now hold; a walk that left a
// member reading or writing another's memory past the collective (a
// parent handing its own segment back down by reference, say) fails one
// of the three checks. The apply epilogue, which writes other members'
// targets by design, is held to the window in which it may. Values are
// small integers, so every sum is exact in any order.
func TestDenseOwnership(t *testing.T) {
	const m, rounds = 37, 5
	everyone := func(g *Group) func(int) []int {
		all := make([]int, g.Size())
		for r := range all {
			all[r] = r
		}
		return func(int) []int { return all }
	}
	// Each kind builds its collective over g and returns one rank's call
	// and the ranks whose buffers that call sums.
	kinds := []struct {
		name  string
		build func(t *testing.T, g *Group) (run func(rank int, buf []float64), peers func(rank int) []int)
	}{
		{"tree", func(t *testing.T, g *Group) (func(int, []float64), func(int) []int) {
			return func(r int, b []float64) { g.AllreduceTree(r, b) }, everyone(g)
		}},
		{"runner", func(t *testing.T, g *Group) (func(int, []float64), func(int) []int) {
			rs := treeRunners(g)
			for _, r := range rs {
				t.Cleanup(r.Close)
			}
			return func(r int, b []float64) {
				rs[r].Launch(b, 0)
				rs[r].Wait()
			}, everyone(g)
		}},
		{"hier-intra", func(t *testing.T, g *Group) (func(int, []float64), func(int) []int) {
			h := NewHier(g, (g.Size()+3)/4)
			return func(r int, b []float64) { h.AllreduceIntra(r, b) },
				func(r int) []int { return h.islands[h.islandOf[r]] }
		}},
	}
	value := func(r, i, round int) float64 { return float64((r*31+i*7+round*13)%101 - 50) }
	for _, p := range []int{2, 3, 5, 8} {
		for _, k := range kinds {
			g := NewGroup(p)
			run, peers := k.build(t, g)
			bufs := make([][]float64, p)
			for r := range bufs {
				bufs[r] = make([]float64, m)
				for i := range bufs[r] {
					bufs[r][i] = value(r, i, 0)
				}
			}
			want := make([][]float64, p)
			for round := 0; round < rounds; round++ {
				for r := range want {
					want[r] = make([]float64, m)
					for _, q := range peers(r) {
						for i, v := range bufs[q] {
							want[r][i] += v
						}
					}
				}
				runGroup(p, g, func(r int) { run(r, bufs[r]) })
				for r := range bufs {
					for i, v := range bufs[r] {
						if v != want[r][i] {
							t.Fatalf("p=%d %s round %d: rank %d[%d] = %g after the collective, want the sum %g",
								p, k.name, round, r, i, v, want[r][i])
						}
					}
				}
				v := round % p
				for i := range bufs[v] {
					bufs[v][i] = value(v, i, round+1)
				}
				for r := range bufs {
					if r == v {
						continue
					}
					for i, x := range bufs[r] {
						if x != want[r][i] {
							t.Fatalf("p=%d %s round %d: writing rank %d's buffer changed rank %d[%d] to %g (shared memory)",
								p, k.name, round, v, r, i, x)
						}
					}
				}
			}
		}
	}
	// The apply epilogue: a parent writes a child's x, and may only do
	// so while that child is parked in down. Each member snapshots its x
	// as its call returns, then scribbles over its spent buffer; after
	// the round every x must still equal its snapshot (no write landed
	// after the owner returned, and no buffer is still read) and be its
	// own x + a·Σ (no epilogue went to another member's x).
	const a = -2
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		g := NewGroup(p)
		bufs, x, snap := make([][]float64, p), make([][]float64, p), make([][]float64, p)
		for r := range x {
			bufs[r], x[r], snap[r] = make([]float64, m), make([]float64, m), make([]float64, m)
			for i := range x[r] {
				x[r][i] = value(r, i, rounds)
			}
		}
		for round := 0; round < rounds; round++ {
			want := make([][]float64, p)
			for r := range want {
				want[r] = append([]float64(nil), x[r]...)
				for q := range bufs {
					for i := range want[r] {
						want[r][i] += a * value(q, i, round)
					}
				}
			}
			runGroup(p, g, func(r int) {
				for i := range bufs[r] {
					bufs[r][i] = value(r, i, round)
				}
				g.AllreduceTreeApply(r, bufs[r], x[r], a)
				copy(snap[r], x[r])
				for i := range bufs[r] {
					bufs[r][i] = float64(1000 + r)
				}
			})
			for r := range x {
				for i, v := range x[r] {
					if v != snap[r][i] {
						t.Fatalf("p=%d apply round %d: rank %d x[%d] moved from %g to %g after its call returned",
							p, round, r, i, snap[r][i], v)
					}
					if v != want[r][i] {
						t.Fatalf("p=%d apply round %d: rank %d x[%d] = %g, want its own x + a·Σ = %g",
							p, round, r, i, v, want[r][i])
					}
				}
			}
		}
	}
}

// wordCost charges one simulated second per word and nothing for latency.
type wordCost struct{}

func (wordCost) XferTime(_, _ int, words int) float64 { return float64(words) }
func (wordCost) ServerOpTime(int, int, int) float64   { return 0 }
