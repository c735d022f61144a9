package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// convAtWorkers runs one Forward+Backward of a fresh, identically-seeded
// Conv2D at the given worker budget and returns the four outputs that
// must be bitwise-stable: forward activations, input gradient, weight
// gradient, and bias gradient.
func convAtWorkers(t *testing.T, workers, batch, inC, outC, size, kernel int) (out, gin, dw, db []float64) {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	l := NewConv2D(rand.New(rand.NewSource(42)), inC, outC, kernel, kernel)
	x := tensor.New(batch, inC, size, size)
	x.FillRandn(rand.New(rand.NewSource(43)), 0, 1)
	y := l.Forward(x, true)
	g := tensor.New(y.Shape()...)
	g.FillRandn(rand.New(rand.NewSource(44)), 0, 1)
	in := l.Backward(g)
	cp := func(v *tensor.Tensor) []float64 { return append([]float64(nil), v.Data...) }
	return cp(y), cp(in), cp(l.w.Grad), cp(l.b.Grad)
}

func TestConv2DBitwiseAcrossWorkers(t *testing.T) {
	// Batch 1 exercises the row-parallel GEMM path, larger batches the
	// sample-sharded path; odd batch sizes leave uneven shards.
	cases := []struct{ batch, inC, outC, size, kernel int }{
		{1, 3, 8, 12, 5},
		{2, 3, 8, 12, 5},
		{3, 2, 5, 9, 3},
		{7, 3, 4, 8, 3},
		{8, 1, 1, 6, 3},
	}
	for _, c := range cases {
		label := fmt.Sprintf("batch=%d %dx%d k=%d", c.batch, c.inC, c.outC, c.kernel)
		refOut, refGin, refDw, refDb := convAtWorkers(t, 1, c.batch, c.inC, c.outC, c.size, c.kernel)
		for w := 2; w <= 8; w++ {
			out, gin, dw, db := convAtWorkers(t, w, c.batch, c.inC, c.outC, c.size, c.kernel)
			for name, pair := range map[string][2][]float64{
				"forward": {refOut, out},
				"gradIn":  {refGin, gin},
				"dW":      {refDw, dw},
				"db":      {refDb, db},
			} {
				for i := range pair[0] {
					if pair[0][i] != pair[1][i] {
						t.Fatalf("%s workers=%d: %s differs at %d: %x vs %x",
							label, w, name, i, pair[1][i], pair[0][i])
					}
				}
			}
		}
	}
}

func TestActivationsBitwiseAcrossWorkers(t *testing.T) {
	x := tensor.New(4, 3000)
	x.FillRandn(rand.New(rand.NewSource(9)), 0, 2)
	g := tensor.New(4, 3000)
	g.FillRandn(rand.New(rand.NewSource(10)), 0, 1)
	run := func(layer Layer, workers int) ([]float64, []float64) {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		y := layer.Forward(x, true)
		in := layer.Backward(g)
		return append([]float64(nil), y.Data...), append([]float64(nil), in.Data...)
	}
	for _, mk := range []func() Layer{
		func() Layer { return NewReLU() },
		func() Layer { return NewTanh() },
	} {
		name := mk().Name()
		refY, refIn := run(mk(), 1)
		for w := 2; w <= 8; w++ {
			y, in := run(mk(), w)
			for i := range refY {
				if y[i] != refY[i] || in[i] != refIn[i] {
					t.Fatalf("%s workers=%d differs at %d", name, w, i)
				}
			}
		}
	}
}

// TestConv2DParallelMatchesSeedSerial pins the parallel layer to an
// independent, straightforward serial reference (direct convolution), so
// the bitwise tests above cannot all drift together.
func TestConv2DParallelMatchesSeedSerial(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(4))
	l := NewConv2D(rand.New(rand.NewSource(3)), 2, 3, 3, 3)
	batch, size := 4, 7
	x := tensor.New(batch, 2, size, size)
	x.FillRandn(rand.New(rand.NewSource(4)), 0, 1)
	y := l.Forward(x, true)
	oh := size - 2
	for i := 0; i < batch; i++ {
		for k := 0; k < 3; k++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < oh; ox++ {
					want := l.b.Value.Data[k]
					for c := 0; c < 2; c++ {
						for ky := 0; ky < 3; ky++ {
							for kx := 0; kx < 3; kx++ {
								want += at(l.w.Value, k, c, ky, kx) * at(x, i, c, oy+ky, ox+kx)
							}
						}
					}
					got := at(y, i, k, oy, ox)
					if diff := got - want; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("direct conv mismatch at (%d,%d,%d,%d): %g vs %g", i, k, oy, ox, got, want)
					}
				}
			}
		}
	}
}

// at is t's element at a row-major n-dimensional index.
func at(t *tensor.Tensor, idx ...int) float64 {
	off := 0
	for i, x := range idx {
		off = off*t.Dim(i) + x
	}
	return t.Data[off]
}
