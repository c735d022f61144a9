package main

import (
	"fmt"
	"sync"
	"time"
)

// Standalone probes: what the training loop's spans do not split,
// measured at the workload's own shapes. Each takes a time budget and
// reports a rate or a per-call time.

// onRanks runs fn on p goroutines, one per rank, and waits for them.
func onRanks(p int, fn func(rank int)) {
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

func fillPattern(xs []float64, salt int) {
	for i := range xs {
		xs[i] = float64((i*7+salt)%13)*0.125 - 0.75
	}
}

// probeBatch draws minibatches from one learner's shard as the training
// loop does (sampler, then gather) until the budget is spent and returns
// the time per minibatch in µs.
func probeBatch(prob *problem, w *workload, budget time.Duration) float64 {
	shard := prob.train().Partition(w.learners)[0]
	smp := newSampler(shard.Len(), w.batch, 1)
	iters := 0
	start := time.Now()
	for time.Since(start) < budget || iters == 0 {
		shard.Batch(smp.Next())
		iters++
	}
	return float64(time.Since(start)) / 1e3 / float64(iters)
}

// probeGemm runs, for every layer shape, the forward product (MatMul)
// and the two backward products (MatMulTransB for the input gradient,
// MatMulTransA for the weight gradient) until the budget is spent. It
// returns the achieved GFLOP/s (2mkn per product) and the GB/s of
// weight operands streamed, the figure that matters at M=1 where each
// product is a matrix-vector pass over the weights.
func probeGemm(shapes []gemmShape, budget time.Duration) (gflops, weightGBps float64) {
	type operands struct{ a, b, c, da, db *matrix }
	ops := make([]operands, len(shapes))
	var flops, words float64
	for i, s := range shapes {
		o := operands{newMatrix(s.m, s.k), newMatrix(s.k, s.n), newMatrix(s.m, s.n), newMatrix(s.m, s.k), newMatrix(s.k, s.n)}
		fillPattern(o.a.Data, i)
		fillPattern(o.b.Data, i+1)
		ops[i] = o
		flops += float64(s.calls) * 3 * 2 * float64(s.m) * float64(s.k) * float64(s.n)
		words += float64(s.calls) * 3 * float64(s.weightWords)
	}
	iters := 0
	start := time.Now()
	for time.Since(start) < budget || iters == 0 {
		for i, s := range shapes {
			o := ops[i]
			for c := 0; c < s.calls; c++ {
				matMul(o.c, o.a, o.b)
				matMulTransB(o.da, o.c, o.b)
				matMulTransA(o.db, o.a, o.c)
			}
		}
		iters++
	}
	secs := time.Since(start).Seconds()
	return flops * float64(iters) / secs / 1e9, words * 8 * float64(iters) / secs / 1e9
}

// probeAxpy runs the step's three passes over m words (two Axpy, one
// Copy) and returns the GB/s of memory traffic they generate.
func probeAxpy(m int, budget time.Duration) float64 {
	x, y, z := make([]float64, m), make([]float64, m), make([]float64, m)
	fillPattern(x, 1)
	iters := 0
	start := time.Now()
	for time.Since(start) < budget || iters == 0 {
		axpy(-1e-3, x, y)
		axpy(1e-3, x, z)
		copyWords(y, z)
		iters++
	}
	bytes := float64(m) * (24 + 24 + 16) * float64(iters)
	return bytes / time.Since(start).Seconds() / 1e9
}

// timeCollective times call on every rank of g, each iteration entered
// behind a barrier so no rank waits for a slower peer's compute, and
// returns the per-iteration time in ms of the slowest rank. prepare,
// when non-nil, runs before the barrier and is not timed. Three
// untimed iterations calibrate how many fit the budget.
func timeCollective(g *group, p int, budget time.Duration, prepare, call func(rank int)) []float64 {
	run := func(iters int) [][]float64 {
		durs := make([][]float64, p)
		onRanks(p, func(rank int) {
			durs[rank] = make([]float64, iters)
			for i := 0; i < iters; i++ {
				if prepare != nil {
					prepare(rank)
				}
				g.Barrier(rank)
				t := time.Now()
				call(rank)
				durs[rank][i] = float64(time.Since(t)) / 1e6
			}
		})
		return durs
	}
	t := time.Now()
	run(3)
	iters := int(budget.Seconds() / (time.Since(t).Seconds() / 3))
	iters = max(5, min(iters, 2000))
	durs := run(iters)
	out := make([]float64, iters)
	for i := range out {
		for r := 0; r < p; r++ {
			out[i] = max(out[i], durs[r][i])
		}
	}
	return out
}

// denseCall returns per-rank m-word buffers' AllreduceTree.
func denseCall(g *group, p, m int) (call func(rank int)) {
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
		fillPattern(bufs[r], r)
	}
	return func(rank int) { g.AllreduceTree(rank, bufs[rank]) }
}

// codecCalls returns the prepare/call pair of one compressed boundary
// as core's bucketed engine issues it: one codec collective per
// parameterised layer, last layer first. prepare reloads a
// gradient-like pattern, since the codec overwrites its input.
func codecCalls(g *group, w *workload, net *network) (prepare, call func(rank int)) {
	m := net.NumParams()
	segs := net.ParamSegments()
	type state struct {
		comp            compressor
		grad, gs, resid []float64
	}
	st := make([]state, w.learners)
	for r := range st {
		st[r] = state{newCompressor(w.compress), make([]float64, m), make([]float64, m), make([]float64, m)}
		for i := range st[r].grad {
			// Heavy-tailed magnitudes, distinct per rank, so selection
			// has real work and the ranks' supports differ.
			v := float64((i*2654435761+r*40503)%1000003)/1000003 - 0.5
			st[r].grad[i] = v * v * v
		}
	}
	prepare = func(rank int) { copy(st[rank].gs, st[rank].grad) }
	call = func(rank int) {
		s := &st[rank]
		for i := len(segs) - 1; i >= 0; i-- {
			lo, hi := segs[i].Off, segs[i].Off+segs[i].Len
			compressedAllreduce(s.comp, g, rank, s.gs[lo:hi], s.resid[lo:hi], w.compressK)
		}
	}
	return prepare, call
}

// probeRTT ping-pongs a one-word frame between ranks 0 and 1 of g and
// returns the round-trip times in µs.
func probeRTT(g *group, budget time.Duration) []float64 {
	const calibrate = 50
	pingPong := func(n int) []float64 {
		rtts := make([]float64, n)
		onRanks(2, func(rank int) {
			word := []float64{1}
			for i := 0; i < n; i++ {
				if rank == 0 {
					t := time.Now()
					g.Send(0, 1, word)
					g.Recv(0, 1)
					rtts[i] = float64(time.Since(t)) / 1e3
				} else {
					g.Recv(1, 0)
					g.Send(1, 0, word)
				}
			}
		})
		return rtts
	}
	t := time.Now()
	pingPong(calibrate)
	n := int(budget.Seconds() / (time.Since(t).Seconds() / calibrate))
	return pingPong(max(200, min(n, 20000)))
}

// probeWire encodes and decodes an m-word frame until the budget is
// spent and returns the payload GB/s of each direction.
func probeWire(m int, budget time.Duration) (encodeGBps, decodeGBps float64, err error) {
	payload, dst := make([]float64, m), make([]float64, m)
	fillPattern(payload, 3)
	var frame []byte
	rate := func(op func() error) (float64, error) {
		iters := 0
		start := time.Now()
		for time.Since(start) < budget/2 || iters == 0 {
			if err := op(); err != nil {
				return 0, err
			}
			iters++
		}
		return float64(8*m) * float64(iters) / time.Since(start).Seconds() / 1e9, nil
	}
	encodeGBps, _ = rate(func() error { frame = appendFrame(frame[:0], payload); return nil })
	decodeGBps, err = rate(func() error { return decodeFrame(frame, dst) })
	if err == nil && dst[m-1] != payload[m-1] {
		err = fmt.Errorf("wire round trip changed the payload")
	}
	return encodeGBps, decodeGBps, err
}

// probeMesh returns the median time in ms to build (and, untimed, tear
// down) a p-rank TCP loopback mesh.
func probeMesh(p, times int) (float64, error) {
	var ms []float64
	for i := 0; i < times; i++ {
		t := time.Now()
		mesh, err := newTCPLoopback(p)
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
		mesh.Close()
	}
	return median(ms), nil
}

// probeEval times one evaluation as core's recorder performs it: argmax
// predictions over the whole train and test sets in batches of 256.
func probeEval(prob *problem, params []float64) float64 {
	net := prob.newNet(1)
	net.SetParamData(params)
	start := time.Now()
	for _, ds := range []*dataset{prob.train(), prob.test()} {
		idx := make([]int, 0, 256)
		for lo := 0; lo < ds.Len(); lo += 256 {
			idx = idx[:0]
			for i := lo; i < min(lo+256, ds.Len()); i++ {
				idx = append(idx, i)
			}
			x, _ := ds.Batch(idx)
			net.Predict(x)
		}
	}
	return time.Since(start).Seconds()
}
