package tensor

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sasgd/internal/parallel"
)

// benchWorkers selects the worker counts the kernel sweep benchmarks run
// at, e.g. go test -bench KernelMatMul ./internal/tensor -workers 1,2,4,8
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

func benchMat(b *testing.B, n int) (*Tensor, *Tensor, *Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	a, bb, c := New(n, n), New(n, n), New(n, n)
	a.FillRandn(rng, 0, 1)
	bb.FillRandn(rng, 0, 1)
	return a, bb, c
}

func BenchmarkMatMul64(b *testing.B) {
	a, x, c := benchMat(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, x)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	a, x, c := benchMat(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, a, x)
	}
}

func BenchmarkMatMulTransA128(b *testing.B) {
	a, x, c := benchMat(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(c, a, x)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	a, x, c := benchMat(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(c, a, x)
	}
}

// BenchmarkKernelMatMulWorkers sweeps the GEMM kernel across matrix
// sizes and worker counts.
func BenchmarkKernelMatMulWorkers(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		a, x, c := benchMat(b, n)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.SetBytes(int64(3 * n * n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMul(c, a, x)
				}
			})
		}
	}
}

// BenchmarkAxpyWorkers sweeps the AXPY kernel (the SGD update hot loop)
// across worker counts at flattened-model scale.
func BenchmarkAxpyWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 21
	x, y := New(n), New(n)
	x.FillRandn(rng, 0, 1)
	for _, w := range workerCounts(b) {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			b.SetBytes(2 * n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x.Data, y.Data)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(1_000_000), New(1_000_000)
	x.FillRandn(rng, 0, 1)
	b.SetBytes(2 * 1_000_000 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x.Data, y.Data)
	}
}

func BenchmarkIm2ColCIFARFirstLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	img := New(3, 32, 32)
	img.FillRandn(rng, 0, 1)
	g := ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1}
	oh, ow := g.OutSize(32, 32)
	cols := New(3*25, oh*ow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(cols, img, g)
	}
}

func BenchmarkCol2ImCIFARFirstLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1}
	oh, ow := g.OutSize(32, 32)
	cols := New(3*25, oh*ow)
	cols.FillRandn(rng, 0, 1)
	dst := New(3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(dst, cols, g)
	}
}

// BenchmarkKernelMatMulTransWorkers sweeps the transposed-operand GEMM
// kernels (backward-pass shapes) the same way BenchmarkKernelMatMulWorkers
// does.
func BenchmarkKernelMatMulTransWorkers(b *testing.B) {
	for _, n := range []int{128, 256} {
		a, x, c := benchMat(b, n)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("transA/n%d/w%d", n, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.SetBytes(int64(3 * n * n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulTransA(c, a, x)
				}
			})
			b.Run(fmt.Sprintf("transB/n%d/w%d", n, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.SetBytes(int64(3 * n * n * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulTransB(c, a, x)
				}
			})
		}
	}
}

// BenchmarkKernelMatMulOdd measures the packed engine on shapes that
// exercise the odd-row and padded-panel edges (worst case for tiling
// overhead).
func BenchmarkKernelMatMulOdd(b *testing.B) {
	for _, n := range []int{65, 129, 257} {
		a, x, c := benchMat(b, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(1))
			b.SetBytes(int64(3 * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(c, a, x)
			}
		})
	}
}

// BenchmarkKernelConvFused measures the fused conv forward (panels
// packed straight from the image) on the CIFAR first-layer shape.
func BenchmarkKernelConvFused(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	img := New(3, 32, 32)
	img.FillRandn(rng, 0, 1)
	g := ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1}
	oh, ow := g.OutSize(32, 32)
	const outC = 64
	w := New(outC, 3*25)
	w.FillRandn(rng, 0, 1)
	bias := make([]float64, outC)
	dst := make([]float64, outC*oh*ow)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvGemmBiasActInto(dst, w.Data, img.Data, 3, 32, 32, g, outC, bias, ActReLU)
		}
	})
	for _, wk := range workerCounts(b) {
		b.Run(fmt.Sprintf("cols/w%d", wk), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(wk))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmBiasAct(dst, w.Data, img.Data, 3, 32, 32, g, outC, bias, ActReLU)
			}
		})
	}
}

// BenchmarkKernelSkinny times the three products of a Linear or
// TemporalConv layer at the NLC-F net's M=1 shapes (m rows of
// activations against a k×n weight matrix): forward A·Bᵀ, input
// gradient A·B, weight gradient Aᵀ·B. Bytes/op is the weight matrix, the
// one operand these products are bound by.
func BenchmarkKernelSkinny(b *testing.B) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ m, in, out int }{{1, 320, 320}, {1, 320, 311}, {2, 200, 320}, {3, 100, 100}} {
		x, w, y := New(s.m, s.in), New(s.out, s.in), New(s.m, s.out)
		dx, dw := New(s.m, s.in), New(s.out, s.in)
		x.FillRandn(rng, 0, 1)
		w.FillRandn(rng, 0, 1)
		name := fmt.Sprintf("m=%d/in=%d/out=%d", s.m, s.in, s.out)
		b.Run(name+"/forward", func(b *testing.B) {
			b.SetBytes(int64(8 * s.in * s.out))
			for i := 0; i < b.N; i++ {
				MatMulTransB(y, x, w)
			}
		})
		b.Run(name+"/dx", func(b *testing.B) {
			b.SetBytes(int64(8 * s.in * s.out))
			for i := 0; i < b.N; i++ {
				MatMul(dx, y, w)
			}
		})
		b.Run(name+"/dw", func(b *testing.B) {
			b.SetBytes(int64(8 * s.in * s.out))
			for i := 0; i < b.N; i++ {
				MatMulTransA(dw, y, x)
			}
		})
	}
}

// micro2x8Go is the Go form of a two-panel tile update: micro2x4 on each
// panel — what micro2x8AVX2 replaces, and its reference.
func micro2x8Go(c0, c1 *[8]float64, ap, bp0, bp1 []float64) {
	micro2x4((*[4]float64)(c0[:4]), (*[4]float64)(c1[:4]), ap, bp0)
	micro2x4((*[4]float64)(c0[4:]), (*[4]float64)(c1[4:]), ap, bp1)
}

type microBenchKernel struct {
	name string
	run  func(c0, c1 *[8]float64, ap, bp0, bp1 []float64)
}

// microBench lists the microkernel sets BenchmarkMicrokernel times; the
// amd64 test file adds the assembly where the CPU can run it.
var microBench = []microBenchKernel{{"go", micro2x8Go}}

// BenchmarkMicrokernel times one 2×8 tile update over k steps — the
// innermost unit of the packed engine, operands L1-resident — at the k of
// cifar_compute's conv layers (27, 128, 144) and of a full KC slab, in
// GFLOP/s on the calling goroutine.
func BenchmarkMicrokernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, kern := range microBench {
		for _, k := range []int{27, 128, 144, 256} {
			ap := randMat(rng, k, gemmMR).Data
			bp0, bp1 := randMat(rng, k, gemmNR).Data, randMat(rng, k, gemmNR).Data
			b.Run(fmt.Sprintf("%s/k=%d", kern.name, k), func(b *testing.B) {
				var c0, c1 [8]float64
				for i := 0; i < b.N; i++ {
					kern.run(&c0, &c1, ap, bp0, bp1)
				}
				b.ReportMetric(float64(2*gemmMR*2*gemmNR*k)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
