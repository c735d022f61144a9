package comm

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkCommAllreduce sweeps the tree at both chunk sizes over group
// size and message length. The group (and therefore its buffer
// pool) persists across iterations, so after the first round the numbers
// are the zero-allocation steady state that training sees — all p ranks
// run the collective loop in lockstep, as the bulk-synchronous discipline
// requires.
func BenchmarkCommAllreduce(b *testing.B) {
	for _, algo := range []string{"tree", "ptree"} {
		for _, p := range []int{2, 4, 8} {
			for _, m := range []int{10_000, 1_000_000} {
				b.Run(fmt.Sprintf("%s/p%d/m%d", algo, p, m), func(b *testing.B) {
					benchCommAllreduce(b, algo, p, m)
				})
			}
		}
	}
}

func benchCommAllreduce(b *testing.B, algo string, p, m int) {
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
	}
	run := func(r int) {
		if algo == "ptree" {
			g.AllreduceTreeChunked(r, bufs[r], 0)
		} else {
			g.AllreduceTree(r, bufs[r])
		}
	}
	b.SetBytes(int64(m * 8))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				run(r)
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
		d, _ := srv.Elastic(0, 0.1, local)
		_ = d
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
