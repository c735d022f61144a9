package nn

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// benchWorkers selects the worker counts the convolution sweep runs at,
// e.g. go test -bench Conv2DForward ./internal/nn -workers 1,2,4,8
// (the package path must precede -workers: go test stops reading
// package arguments at the first flag it does not recognise itself).
var benchWorkers = flag.String("workers", "1,2,4,8", "comma-separated worker counts for kernel benchmark sweeps")

func workerCounts(b *testing.B) []int {
	b.Helper()
	var ws []int
	for _, f := range strings.Split(*benchWorkers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			b.Fatalf("bad -workers entry %q", f)
		}
		ws = append(ws, w)
	}
	return ws
}

func benchInput(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.FillRandn(rand.New(rand.NewSource(7)), 0, 1)
	return x
}

// BenchmarkConv2DForward sweeps the Table-I first conv layer across
// batch sizes (batch 1 exercises the row-parallel GEMM path, batch 8 the
// sample-sharded path) and worker counts, then runs cifarConvShapes on
// one worker with GFLOP/s reported, the rows BenchmarkConv2DBackward's
// are read against.
func BenchmarkConv2DForward(b *testing.B) {
	for _, batch := range []int{1, 8} {
		l := NewConv2D(rand.New(rand.NewSource(1)), 3, 64, 5, 5)
		x := benchInput(batch, 3, 32, 32)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("b%d/w%d", batch, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Forward(x, true)
				}
			})
		}
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for li, sh := range cifarConvShapes {
		l, x, flops := cifarConv(li)
		b.Run("cifar/"+sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
			}
			reportGFLOPS(b, flops)
		})
	}
}

// TestConv2DForwardSteadyStateAllocs pins the per-batch allocation
// behaviour: after the first call sizes the retained column buffers, a
// Forward pass allocates only the output tensor and the worker-pool call
// frame, regardless of batch size.
func TestConv2DForwardSteadyStateAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	l := NewConv2D(rand.New(rand.NewSource(1)), 3, 16, 5, 5)
	x := benchInput(8, 3, 16, 16)
	l.Forward(x, true) // size the retained per-sample column buffers
	allocs := testing.AllocsPerRun(20, func() { l.Forward(x, true) })
	if allocs > 16 {
		t.Errorf("steady-state Conv2D.Forward allocates %.0f objects/op, want <= 16 (column scratch must be reused)", allocs)
	}
}

// TestConv2DBackwardSteadyStateAllocs asserts Backward reuses pooled
// column-gradient and panel scratch and its retained dW tile rather than
// allocating per sample: a Forward + Backward step allocates its two
// result tensors and the worker-pool call frames of its three parallel
// sections, and a network's first layer — no input gradient — less.
func TestConv2DBackwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	for _, tc := range []struct {
		first bool
		max   float64 // measured 21 and 10; +2 for a pool the GC emptied
	}{{false, 23}, {true, 12}} {
		l := NewConv2D(rand.New(rand.NewSource(1)), 3, 16, 5, 5)
		if tc.first {
			l.markFirst()
		}
		x := benchInput(8, 3, 16, 16)
		g := benchInput(l.Forward(x, true).Shape()...)
		l.Backward(g)
		allocs := testing.AllocsPerRun(20, func() {
			l.Forward(x, true)
			l.Backward(g)
		})
		if allocs > tc.max {
			t.Errorf("steady-state Conv2D step (first layer: %v) allocates %.0f objects/op, want <= %.0f", tc.first, allocs, tc.max)
		}
	}
}

// cifarConvShapes are the three conv layers of the ledger's
// cifar_compute net (bench/workloads.go: 16×16×3 input, channels
// 16/32/32, kernels 3/3/2, a 2×2 pool after each); cifarBatch is its
// minibatch size.
var cifarConvShapes = []struct {
	name                  string
	inC, outC, size, kern int
}{
	{"L1_3x16_k3_p196", 3, 16, 16, 3},
	{"L2_16x32_k3_p25", 16, 32, 7, 3},
	{"L3_32x32_k2_p1", 32, 32, 2, 2},
}

const cifarBatch = 64

// cifarConv builds layer li of cifarConvShapes the way the net holds it
// (layer 0 marked first), a minibatch for it, and the multiply-add count
// ×2 of the one GEMM per sample its forward lowers to.
func cifarConv(li int) (l *Conv2D, x *tensor.Tensor, gemmFlops float64) {
	sh := cifarConvShapes[li]
	l = NewConv2D(rand.New(rand.NewSource(1)), sh.inC, sh.outC, sh.kern, sh.kern)
	if li == 0 {
		l.markFirst()
	}
	out := sh.size - sh.kern + 1
	return l, benchInput(cifarBatch, sh.inC, sh.size, sh.size),
		2 * float64(cifarBatch*sh.outC*sh.inC*sh.kern*sh.kern*out*out)
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// BenchmarkConv2DBackward times Backward alone (the Forward that arms it
// runs off the clock) at cifarConvShapes on one kernel worker — what a
// ledger learner has — in GFLOP/s of the GEMMs it lowers to: the weight
// gradient plus, except on the net's first layer, the input gradient,
// each the size of the forward product. Compare with the cifar rows of
// BenchmarkConv2DForward.
func BenchmarkConv2DBackward(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for li, sh := range cifarConvShapes {
		l, x, flops := cifarConv(li)
		if li > 0 {
			flops *= 2
		}
		g := benchInput(l.Forward(x, true).Shape()...)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l.Forward(x, true)
				b.StartTimer()
				l.Backward(g)
			}
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkPoolAfterReLU times the two elementwise stages that follow
// cifar_compute's first conv layer at its minibatch: the 2×2 pool over a
// rectified map (about half the values +0, so "beats the running
// maximum" is unpredictable) and the ReLU's backward select.
func BenchmarkPoolAfterReLU(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	x := benchInput(cifarBatch, 16, 14, 14)
	relu := NewReLU()
	y := relu.Forward(x, true)
	pool := NewMaxPool2D(2, 2)
	b.Run("MaxPool2DForward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool.Forward(y, true)
		}
	})
	b.Run("ReLUBackward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relu.Backward(x)
		}
	})
}

func BenchmarkLinearForward(b *testing.B) {
	l := NewLinear(rand.New(rand.NewSource(1)), 1000, 1000)
	x := benchInput(16, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkTemporalConvForward(b *testing.B) {
	l := NewTemporalConv(rand.New(rand.NewSource(1)), 200, 1000, 2)
	x := benchInput(1, 3, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	crit := NewSoftmaxCrossEntropy()
	logits := benchInput(64, 311)
	labels := make([]int, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crit.Loss(logits, labels)
		crit.Backward()
	}
}

func BenchmarkDropoutForward(b *testing.B) {
	l := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := benchInput(64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}
