package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkCommAllreduce sweeps the tree over group size and message
// length. The group (and therefore its buffer pool) persists across
// iterations, so after the first round the numbers are the
// zero-allocation steady state that training sees — all p ranks run the
// collective loop in lockstep, as the bulk-synchronous discipline
// requires.
func BenchmarkCommAllreduce(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, m := range []int{10_000, 1_000_000} {
			b.Run(fmt.Sprintf("tree/p%d/m%d", p, m), func(b *testing.B) {
				benchCommAllreduce(b, p, m)
			})
		}
	}
}

func benchCommAllreduce(b *testing.B, p, m int) {
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
	}
	b.SetBytes(int64(m * 8))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				g.AllreduceTree(r, bufs[r])
			}
		}(r)
	}
	wg.Wait()
}

func benchAllreduce(b *testing.B, p, words int) {
	b.Helper()
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, words)
	}
	b.SetBytes(int64(words * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGroup(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				g.AllreduceTree(r, bufs[r])
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkAllreduceTree8x100k(b *testing.B)  { benchAllreduce(b, 8, 100_000) }
func BenchmarkAllreduceTree16x100k(b *testing.B) { benchAllreduce(b, 16, 100_000) }

func BenchmarkParamServerPushPull(b *testing.B) {
	const m = 500_000
	srv := NewParamServer(make([]float64, m), 8, nil, nil)
	grad := make([]float64, m)
	buf := make([]float64, m)
	b.SetBytes(2 * m * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.PushGrad(0, 0.1, grad)
		srv.Pull(0, buf)
	}
}

func BenchmarkParamServerElastic(b *testing.B) {
	const m = 500_000
	srv := NewParamServer(make([]float64, m), 8, nil, nil)
	local := make([]float64, m)
	b.SetBytes(m * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Elastic(0, 0.1, local)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	bar := NewBarrier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bar.Wait()
			}()
		}
		wg.Wait()
	}
}

// BenchmarkTopkAllreduce times the top-k codec at the NLC-F net's four
// bucket shapes (10 100, 64 320, 102 720 and 99 831 words), k = 5 %, on a
// one-rank group. leaf is one bucket's Allreduce on a fresh gradient
// over the residual the earlier ops left: fold, selection, split, the
// resid² walk and the scatter. root is the re-selection a p = 2 root adds:
// two leaves' pair lists merged (about 2k pairs) cut back to k, the
// dropped values folded into its residual. Copying the inputs back is
// not timed.
func BenchmarkTopkAllreduce(b *testing.B) {
	for _, m := range []int{10100, 64320, 102720, 99831} {
		k := SparsityK(0.05, m)
		rng := rand.New(rand.NewSource(int64(m)))
		grad := func() []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
			}
			return v
		}
		seg0, other := grad(), grad()
		b.Run(fmt.Sprintf("leaf/m=%d", m), func(b *testing.B) {
			g, c := NewGroup(1), NewCompressor("topk")
			seg, res := make([]float64, m), make([]float64, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(seg, seg0)
				b.StartTimer()
				c.Allreduce(g, 0, seg, res, 0.05, 0, nil, 0)
			}
		})
		b.Run(fmt.Sprintf("root/m=%d", m), func(b *testing.B) {
			g, c := NewGroup(1), &topkCompressor{}
			var pairs [2][]float64
			for l, v := range [][]float64{seg0, other} {
				c.Allreduce(g, 0, v, make([]float64, m), 0.05, 0, nil, 0)
				for j, x := range v {
					if x != 0 {
						pairs[l] = append(pairs[l], float64(j), x)
					}
				}
			}
			merged := mergePairs(nil, pairs[0], pairs[1])
			acc, res := make([]float64, len(merged)), make([]float64, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(acc, merged)
				b.StartTimer()
				c.resparsify(acc, k, res)
			}
		})
	}
}
