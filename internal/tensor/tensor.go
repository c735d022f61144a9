// Package tensor implements the dense numeric arrays and kernels that the
// neural-network substrate is built on. Tensors are row-major, contiguous
// float64 arrays with an explicit shape. The package provides the
// elementwise operations, matrix multiplication, im2col/col2im lowering,
// and reductions needed to implement forward and backward passes of the
// networks in the paper (Tables I and II), plus seeded random fills so
// that every experiment in the repository is deterministic.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"sasgd/internal/parallel"
)

// elemGrain is the minimum number of elements per shard for the
// parallelized elementwise kernels (axpy, Scale, Mul). These loops are
// memory-bound, so only large vectors — flattened model parameters,
// whole-minibatch activations — are worth splitting; everything smaller
// runs serially with zero dispatch overhead. Elementwise kernels touch
// each index independently, so parallel results are bitwise identical to
// serial ones at any worker count.
const elemGrain = 1 << 15

// Tensor is a dense, row-major, contiguous n-dimensional array of float64.
//
// The zero value is an empty tensor with no shape; use New or one of the
// other constructors to obtain a usable tensor. Data is exposed so that
// hot loops (optimizers, collectives) can operate on the flat storage
// without per-element call overhead; Data must always have exactly
// Size() elements.
type Tensor struct {
	shape []int
	// Data is the flat row-major backing storage.
	Data []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative. A tensor with no dimensions is a scalar holding
// a single element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice returns a tensor with the given shape that adopts data as its
// backing storage (no copy). It panics if len(data) does not match the
// shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor with the given shape where every element is v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// offset converts an n-dimensional index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given n-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given n-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Reshape returns a view of t with a new shape covering the same backing
// data. It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's elements into t. It panics if the sizes differ
// (shapes may differ as long as the element counts agree).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// FillRandn fills t with samples from N(mean, std²) drawn from rng.
func (t *Tensor) FillRandn(rng *rand.Rand, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()*std + mean
	}
}

// FillUniform fills t with samples from the uniform distribution on
// [lo, hi) drawn from rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// String renders small tensors in full and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g] (%d elements)", t.Data[0], t.Data[1], t.Data[2], t.Data[len(t.Data)-1], len(t.Data))
	}
	return b.String()
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameSize(o *Tensor, op string) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Add accumulates o into t elementwise (t += o).
func (t *Tensor) Add(o *Tensor) {
	t.mustSameSize(o, "Add")
	axpy(1, o.Data, t.Data)
}

// Sub subtracts o from t elementwise (t -= o).
func (t *Tensor) Sub(o *Tensor) {
	t.mustSameSize(o, "Sub")
	axpy(-1, o.Data, t.Data)
}

// Mul multiplies t by o elementwise (t *= o).
func (t *Tensor) Mul(o *Tensor) {
	t.mustSameSize(o, "Mul")
	x, y := o.Data, t.Data
	parallel.For(len(x), elemGrain, func(lo, hi int) {
		ys := y[lo:hi]
		for i, v := range x[lo:hi] {
			ys[i] *= v
		}
	})
}

// Scale multiplies every element of t by a.
func (t *Tensor) Scale(a float64) {
	d := t.Data
	parallel.For(len(d), elemGrain, func(lo, hi int) {
		ds := d[lo:hi]
		for i := range ds {
			ds[i] *= a
		}
	})
}

// AddScaled accumulates a*o into t (t += a·o), the AXPY kernel that SGD
// parameter updates reduce to.
func (t *Tensor) AddScaled(a float64, o *Tensor) {
	t.mustSameSize(o, "AddScaled")
	axpy(a, o.Data, t.Data)
}

// The flat-vector kernels below are the SGD update path: model-sized
// vectors (the NLC-F model is 277 k words) split across the worker pool,
// everything smaller — and every call under a budget of one worker, which
// is what a learner holds when there are as many learners as cores — on a
// closure-free serial branch. A closure handed to parallel.For is
// heap-allocated even when it runs inline (parallel.Shards), and these
// run once or twice per training step.

// axpy computes y += a*x over flat slices. It is the single hottest loop
// in training; keeping it free of bounds surprises lets the compiler
// keep the loop tight.
func axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	if parallel.Shards(len(x), elemGrain) <= 1 {
		axpyRange(a, x, y)
		return
	}
	parallel.For(len(x), elemGrain, func(lo, hi int) {
		axpyRange(a, x[lo:hi], y[lo:hi])
	})
}

func axpyRange(a float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// Axpy computes y += a*x over raw slices; exposed for the optimizer and
// collective code that works on flattened parameter vectors.
func Axpy(a float64, x, y []float64) { axpy(a, x, y) }

// Accumulate adds g into a running sum: sum += g, or with first — the
// sum holds nothing yet — sum = 0 + g, which writes exactly the bits
// that adding g into a cleared sum would (−0 becomes +0) without reading
// sum, so the owner of the sum never has to clear it.
func Accumulate(sum, g []float64, first bool) {
	if len(sum) != len(g) {
		panic("tensor: Accumulate length mismatch")
	}
	if parallel.Shards(len(g), elemGrain) <= 1 {
		accumulateRange(sum, g, first)
		return
	}
	parallel.For(len(g), elemGrain, func(lo, hi int) {
		accumulateRange(sum[lo:hi], g[lo:hi], first)
	})
}

func accumulateRange(sum, g []float64, first bool) {
	sum = sum[:len(g)]
	if first {
		for i, v := range g {
			sum[i] = 0 + v
		}
		return
	}
	for i, v := range g {
		sum[i] += v
	}
}

// AxpyAccumulate is Axpy(a, g, y) and Accumulate(sum, g, first) in one
// pass over g — the SGD step and the gradient sum of a local update.
func AxpyAccumulate(a float64, g, y, sum []float64, first bool) {
	if len(y) != len(g) || len(sum) != len(g) {
		panic("tensor: AxpyAccumulate length mismatch")
	}
	if parallel.Shards(len(g), elemGrain) <= 1 {
		axpyAccumulateRange(a, g, y, sum, first)
		return
	}
	parallel.For(len(g), elemGrain, func(lo, hi int) {
		axpyAccumulateRange(a, g[lo:hi], y[lo:hi], sum[lo:hi], first)
	})
}

func axpyAccumulateRange(a float64, g, y, sum []float64, first bool) {
	y, sum = y[:len(g)], sum[:len(g)]
	if first {
		for i, v := range g {
			y[i] += a * v
			sum[i] = 0 + v
		}
		return
	}
	for i, v := range g {
		y[i] += a * v
		sum[i] += v
	}
}

// Copy copies src into dst over the parallel worker pool. Equivalent to
// the builtin copy for equal-length slices, but model-sized vectors (the
// replica reset on SASGD's aggregation path) are split across workers
// like the other flat-vector kernels.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	if parallel.Shards(len(dst), elemGrain) <= 1 {
		copy(dst, src)
		return
	}
	parallel.For(len(dst), elemGrain, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustSameSize(o, "Dot")
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element (first occurrence).
// It panics on an empty tensor.
func (t *Tensor) Argmax() int {
	if len(t.Data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether t and o have the same shape and all elements are
// within tol of each other.
func (t *Tensor) Equal(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}
