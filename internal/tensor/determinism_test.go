package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
)

// The convergence experiments and EXPERIMENTS.md numbers rely on the
// parallel kernels being bitwise-identical to the serial ones: shard
// boundaries are fixed and per-element accumulation order is unchanged,
// so a worker-count change must never change a single bit of output.
// Shapes deliberately include m=1, n=1, k=1 and sizes that do not divide
// evenly into any shard count.

var oddMatShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 5, 9},
	{5, 1, 3},
	{3, 9, 1},
	{7, 3, 5},
	{17, 9, 13},
	{31, 64, 33},
	{64, 64, 64},
	{101, 67, 129},
}

// runAtWorkers evaluates fn at the given worker budget and returns the
// flat output it produced.
func runAtWorkers(w int, fn func() *Tensor) []float64 {
	defer parallel.SetWorkers(parallel.SetWorkers(w))
	return append([]float64(nil), fn().Data...)
}

func assertBitwise(t *testing.T, label string, fn func() *Tensor) {
	t.Helper()
	ref := runAtWorkers(1, fn)
	for w := 2; w <= 8; w++ {
		got := runAtWorkers(w, fn)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: workers=%d differs from serial at index %d: %x vs %x",
					label, w, i, got[i], ref[i])
			}
		}
	}
}

func TestMatMulBitwiseAcrossWorkers(t *testing.T) {
	for _, s := range oddMatShapes {
		rng := rand.New(rand.NewSource(int64(s.m*1000 + s.k*10 + s.n)))
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		dst := New(s.m, s.n)
		assertBitwise(t, fmt.Sprintf("MatMul %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
			MatMul(dst, a, b)
			return dst
		})
		acc := New(s.m, s.n)
		acc.FillRandn(rng, 0, 1)
		init := acc.Clone()
		assertBitwise(t, fmt.Sprintf("MatMulAcc %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
			acc.CopyFrom(init)
			MatMulAcc(acc, a, b)
			return acc
		})
	}
}

func TestMatMulTransABitwiseAcrossWorkers(t *testing.T) {
	for _, s := range oddMatShapes {
		rng := rand.New(rand.NewSource(int64(s.m*999 + s.k*7 + s.n)))
		a := randMat(rng, s.k, s.m) // Aᵀ·B: A is k×m
		b := randMat(rng, s.k, s.n)
		dst := New(s.m, s.n)
		assertBitwise(t, fmt.Sprintf("MatMulTransA %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
			MatMulTransA(dst, a, b)
			return dst
		})
	}
}

func TestMatMulTransBBitwiseAcrossWorkers(t *testing.T) {
	for _, s := range oddMatShapes {
		rng := rand.New(rand.NewSource(int64(s.m*37 + s.k*11 + s.n)))
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.n, s.k) // A·Bᵀ: B is n×k
		dst := New(s.m, s.n)
		assertBitwise(t, fmt.Sprintf("MatMulTransB %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
			MatMulTransB(dst, a, b)
			return dst
		})
		acc := New(s.m, s.n)
		acc.FillRandn(rng, 0, 1)
		init := acc.Clone()
		assertBitwise(t, fmt.Sprintf("MatMulAccTransB %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
			acc.CopyFrom(init)
			MatMulAccTransB(acc, a, b)
			return acc
		})
	}
}

func TestElementwiseBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Above elemGrain so the parallel path actually engages.
	n := elemGrain*3 + 17
	x := New(n)
	x.FillRandn(rng, 0, 1)
	y := New(n)
	y.FillRandn(rng, 0, 1)
	init := y.Clone()
	assertBitwise(t, "Axpy", func() *Tensor {
		y.CopyFrom(init)
		Axpy(0.37, x.Data, y.Data)
		return y
	})
}

func TestIm2ColIntoMatchesTensorForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	img := New(3, 13, 11)
	img.FillRandn(rng, 0, 1)
	g := ConvGeom{KH: 3, KW: 3, SH: 2, SW: 1, PH: 1, PW: 1}
	oh, ow := g.OutSize(13, 11)
	want := New(3*9, oh*ow)
	Im2Col(want, img, g)
	got := make([]float64, 3*9*oh*ow)
	Im2ColInto(got, img.Data, 3, 13, 11, g)
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("Im2ColInto differs at %d", i)
		}
	}
	back := New(3, 13, 11)
	Col2Im(back, want, g)
	got2 := make([]float64, 3*13*11)
	Col2ImInto(got2, got, 3, 13, 11, g)
	for i := range got2 {
		if got2[i] != back.Data[i] {
			t.Fatalf("Col2ImInto differs at %d", i)
		}
	}
}
