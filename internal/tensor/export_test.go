package tensor

import (
	"fmt"
	"math"

	"sasgd/internal/parallel"
)

// Constructors, accessors, reductions and accumulating products only
// the tests use: none has a caller in the library, the commands or
// bench/, so none is part of the package's API. The accumulating
// products are the packed engine's acc entry points, held to the
// reference loops like the overwriting ones.

// Full returns a tensor with the given shape where every element is v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

// At returns the element at the given n-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// CopyFrom copies src's elements into t. It panics if the sizes differ
// (shapes may differ as long as the element counts agree).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
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

// MatMulAcc computes C += A·B with the same shape rules as MatMul.
func MatMulAcc(dst, a, b *Tensor) {
	m, k, n := checkMatMulShapes(dst, a, b)
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, false, m, k, n, true, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, 0, m, true)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, lo, hi, true)
	})
}

// MatMulAccTransB computes C += A·Bᵀ where A is m×k, B is n×k, C is m×n.
// The packed tier seeds each element's accumulation chain with the
// existing C value (c + a₀b₀ + a₁b₁ + …) where the small tier computes
// the dot product first and adds it once (c + Σaᵢbᵢ); the two round
// differently, but the tier is a pure function of the shape, so any
// given call site is still bitwise reproducible.
func MatMulAccTransB(dst, a, b *Tensor) {
	m, k, n := checkTransBShapes(dst, a, b, "MatMulAccTransB")
	if packedShape(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, true, m, k, n, true, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, 0, m, true)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, lo, hi, true)
	})
}

// Transpose2D returns a new tensor holding the transpose of the 2-D
// tensor t.
func Transpose2D(t *Tensor) *Tensor {
	if t.Dims() != 2 {
		panic("tensor: Transpose2D needs a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// Im2Col lowers a (C,H,W) image into a (C*KH*KW, OH*OW) column matrix so
// that convolution becomes a single matrix multiplication. dst must be
// preallocated with that shape. Padding reads as zero.
func Im2Col(dst, img *Tensor, g ConvGeom) {
	if img.Dims() != 3 {
		panic("tensor: Im2Col needs a (C,H,W) input")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh, ow := g.OutSize(h, w)
	rows := c * g.KH * g.KW
	cols := oh * ow
	if dst.Dims() != 2 || dst.shape[0] != rows || dst.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2Col destination shape %v, want [%d %d]", dst.shape, rows, cols))
	}
	Im2ColInto(dst.Data, img.Data, c, h, w, g)
}
