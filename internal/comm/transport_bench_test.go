package comm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"sasgd/internal/tensor"
)

// benchTransportGroup builds a p-rank group over the named backend;
// cleanup closes the TCP mesh.
func benchTransportGroup(b *testing.B, backend string, p int) *Group {
	b.Helper()
	switch backend {
	case "chan":
		return NewGroup(p)
	case "tcp":
		tr, err := NewTCPLoopback(p)
		if err != nil {
			b.Fatal(err)
		}
		g := NewTransportGroup(tr, nil, nil, nil)
		b.Cleanup(g.Close)
		return g
	default:
		panic("unknown backend " + backend)
	}
}

// BenchmarkTransportAllreduce compares allreduce throughput on the
// in-process channel fabric against TCP loopback — the wire tax of real
// sockets, framing and CRC at identical algorithm schedules (SetBytes:
// MB/s ÷ 8 is words/s). The p rank goroutines live across iterations,
// as a learner's do: started per iteration, each would begin on a fresh
// 2 KiB stack and spend much of the row growing it (runtime.copystack),
// which moves with frame sizes rather than with the collective.
//
// The apply rows are a boundary's x′ ← x′ − γp·Σ at the nlcf model's
// size: the tree followed by an axpy of the sum (tree+axpy) against the
// epilogue riding the walk (fused, AllreduceTreeApply).
func BenchmarkTransportAllreduce(b *testing.B) {
	const p, applyM = 4, 276971
	run := func(b *testing.B, backend string, p, m int, op func(g *Group, rank int, buf, x []float64)) {
		g := benchTransportGroup(b, backend, p)
		bufs, xs := make([][]float64, p), make([][]float64, p)
		for r := range bufs {
			bufs[r], xs[r] = make([]float64, m), make([]float64, m)
			for i := range bufs[r] {
				bufs[r][i] = float64(r*m + i)
			}
		}
		b.SetBytes(int64(8 * m))
		b.ResetTimer()
		runGroup(p, g, func(rank int) {
			for i := 0; i < b.N; i++ {
				op(g, rank, bufs[rank], xs[rank])
			}
		})
	}
	for _, backend := range []string{"chan", "tcp"} {
		for _, m := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("%s/p%d/m%d", backend, p, m), func(b *testing.B) {
				run(b, backend, p, m, func(g *Group, r int, buf, _ []float64) { g.AllreduceTree(r, buf) })
			})
		}
		for _, p := range []int{2, 4} {
			b.Run(fmt.Sprintf("apply/%s/p%d/m%d/tree+axpy", backend, p, applyM), func(b *testing.B) {
				run(b, backend, p, applyM, func(g *Group, r int, buf, x []float64) {
					g.AllreduceTree(r, buf)
					tensor.Axpy(-1e-9, buf, x)
				})
			})
			b.Run(fmt.Sprintf("apply/%s/p%d/m%d/fused", backend, p, applyM), func(b *testing.B) {
				run(b, backend, p, applyM, func(g *Group, r int, buf, x []float64) {
					g.AllreduceTreeApply(r, buf, x, -1e-9)
				})
			})
		}
	}
}

// BenchmarkTransportFrameLatency ping-pongs one-word frames across a
// single link and reports the one-way latency distribution (rtt/2) as
// p50-ns/p99-ns metrics — the per-frame cost floor under each backend.
// ns/op is the full round trip.
func BenchmarkTransportFrameLatency(b *testing.B) {
	for _, backend := range []string{"chan", "tcp"} {
		b.Run(backend, func(b *testing.B) {
			var tr Transport
			switch backend {
			case "chan":
				tr = newChanTransport(2)
			case "tcp":
				tcp, err := NewTCPLoopback(2)
				if err != nil {
					b.Fatal(err)
				}
				tr = tcp
			}
			defer tr.Close()
			var pool *bufPool
			if pt, ok := tr.(pooledTransport); ok {
				pool = pt.bufferPool()
			}
			release := func(f Frame) {
				if pool != nil && f.pb != nil {
					pool.release(f.pb)
				}
			}
			go func() { // echo peer: bounce every ping straight back
				for {
					f := tr.Recv(1, 0)
					if f.Data[0] < 0 { // shutdown sentinel
						release(f)
						return
					}
					tr.Send(1, 0, f) // pooled buffer ownership moves to the writer
				}
			}()
			ping := []float64{42}
			lat := make([]time.Duration, 0, b.N)
			// Warm the path (connection buffers, pools) before timing.
			for i := 0; i < 100; i++ {
				tr.Send(0, 1, Frame{Data: ping})
				release(tr.Recv(0, 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				tr.Send(0, 1, Frame{Data: ping})
				f := tr.Recv(0, 1)
				lat = append(lat, time.Since(t0)/2)
				release(f)
			}
			b.StopTimer()
			tr.Send(0, 1, Frame{Data: []float64{-1}}) // stop the echo peer
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
			}
		})
	}
}
