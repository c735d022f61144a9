package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
)

// gemmSweepSizes exercises every routing and edge case of the two-tier
// GEMM dispatch: 1 (degenerate), 3 and 7 (below every tile size, odd),
// 17 (odd, above MR/NR), 64 (exact multiples of MR/NR/MC), 65 (one past
// the aligned case, forcing the odd-row and padded-panel edges).
var gemmSweepSizes = []int{1, 3, 7, 17, 64, 65}

// TestGemmShapeSweepAllVariants sweeps m,k,n over gemmSweepSizes for
// every GEMM variant, checking (a) correctness against the naive triple
// loop and (b) bitwise identity across worker counts 1–8.
func TestGemmShapeSweepAllVariants(t *testing.T) {
	for _, m := range gemmSweepSizes {
		for _, k := range gemmSweepSizes {
			for _, n := range gemmSweepSizes {
				rng := rand.New(rand.NewSource(int64(m*100000 + k*1000 + n)))
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				at := Transpose2D(a) // k×m
				bt := Transpose2D(b) // n×k
				want := naiveMatMul(a, b)
				label := fmt.Sprintf("%dx%dx%d", m, k, n)
				dst := New(m, n)

				MatMul(dst, a, b)
				if !dst.Equal(want, 1e-10) {
					t.Fatalf("MatMul %s: mismatch vs naive", label)
				}
				assertBitwise(t, "MatMul "+label, func() *Tensor {
					MatMul(dst, a, b)
					return dst
				})

				MatMulTransA(dst, at, b)
				if !dst.Equal(want, 1e-10) {
					t.Fatalf("MatMulTransA %s: mismatch vs naive", label)
				}
				assertBitwise(t, "MatMulTransA "+label, func() *Tensor {
					MatMulTransA(dst, at, b)
					return dst
				})

				MatMulTransB(dst, a, bt)
				if !dst.Equal(want, 1e-10) {
					t.Fatalf("MatMulTransB %s: mismatch vs naive", label)
				}
				assertBitwise(t, "MatMulTransB "+label, func() *Tensor {
					MatMulTransB(dst, a, bt)
					return dst
				})

				init := randMat(rng, m, n)
				wantAcc := init.Clone()
				for i := range wantAcc.Data {
					wantAcc.Data[i] += want.Data[i]
				}
				acc := init.Clone()
				MatMulAcc(acc, a, b)
				if !acc.Equal(wantAcc, 1e-10) {
					t.Fatalf("MatMulAcc %s: mismatch vs naive", label)
				}
				assertBitwise(t, "MatMulAcc "+label, func() *Tensor {
					acc.CopyFrom(init)
					MatMulAcc(acc, a, b)
					return acc
				})

				acc.CopyFrom(init)
				MatMulAccTransB(acc, a, bt)
				if !acc.Equal(wantAcc, 1e-10) {
					t.Fatalf("MatMulAccTransB %s: mismatch vs naive", label)
				}
				assertBitwise(t, "MatMulAccTransB "+label, func() *Tensor {
					acc.CopyFrom(init)
					MatMulAccTransB(acc, a, bt)
					return acc
				})
			}
		}
	}
}

// withFastKernels runs fn with the fast-kernel gate in the given state,
// restoring the previous state afterwards.
func withFastKernels(on bool, fn func()) {
	prev := SetFastKernels(on)
	defer SetFastKernels(prev)
	fn()
}

// TestFastKernelsEquivalence pins the FastKernels contract: the
// reordered kernels agree with the default ones within 1e-12 relative
// tolerance on every shape class (packed tier, small tier, raw Dot).
func TestFastKernelsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, s := range []struct{ m, k, n int }{
		{4, 9, 5},     // small tier
		{64, 64, 64},  // packed tier, aligned
		{65, 129, 33}, // packed tier, odd edges
		{1, 257, 1},   // dot-shaped
		{17, 1000, 3}, // long k small tier
	} {
		a := randMat(rng, s.m, s.k)
		bt := randMat(rng, s.n, s.k)
		slow := New(s.m, s.n)
		fast := New(s.m, s.n)
		withFastKernels(false, func() { MatMulTransB(slow, a, bt) })
		withFastKernels(true, func() { MatMulTransB(fast, a, bt) })
		for i := range slow.Data {
			d := math.Abs(fast.Data[i] - slow.Data[i])
			if scale := math.Abs(slow.Data[i]); scale > 1 {
				d /= scale
			}
			if d > 1e-12 {
				t.Fatalf("MatMulTransB %dx%dx%d: fast/default relative difference %g > 1e-12 at %d",
					s.m, s.k, s.n, d, i)
			}
		}
	}
	x := make([]float64, 1023)
	y := make([]float64, 1023)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	slow, fast := dotSerial(x, y), dotUnroll4(x, y)
	if d := math.Abs(fast-slow) / math.Max(1, math.Abs(slow)); d > 1e-12 {
		t.Fatalf("dotUnroll4/dotSerial relative difference %g > 1e-12", d)
	}
}

// TestFastKernelsBitwiseAcrossWorkers verifies the fast mode keeps the
// cross-worker bitwise guarantee (it reorders within a dot product, not
// across shards).
func TestFastKernelsBitwiseAcrossWorkers(t *testing.T) {
	withFastKernels(true, func() {
		for _, s := range []struct{ m, k, n int }{{17, 9, 13}, {65, 64, 33}} {
			rng := rand.New(rand.NewSource(int64(s.m + s.k + s.n)))
			a := randMat(rng, s.m, s.k)
			bt := randMat(rng, s.n, s.k)
			dst := New(s.m, s.n)
			assertBitwise(t, fmt.Sprintf("fast MatMulTransB %dx%dx%d", s.m, s.k, s.n), func() *Tensor {
				MatMulTransB(dst, a, bt)
				return dst
			})
		}
	})
}

// applyActRef applies an epilogue activation the way the nn layers do —
// the reference the fused kernels must match bitwise.
func applyActRef(data []float64, act EpilogueAct) {
	for i, v := range data {
		switch act {
		case ActReLU:
			if !(v > 0) {
				data[i] = 0
			}
		case ActTanh:
			data[i] = ScalarTanh(v)
		case ActSigmoid:
			data[i] = ScalarSigmoid(v)
		}
	}
}

var allActs = []EpilogueAct{ActNone, ActReLU, ActTanh, ActSigmoid}

// TestLinearForwardMatchesUnfused checks the fused linear forward is
// bitwise identical to MatMulTransB + bias pass + activation, on both
// dispatch tiers and across worker counts.
func TestLinearForwardMatchesUnfused(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{3, 5, 7},    // small tier
		{64, 64, 64}, // packed tier
		{33, 65, 17}, // packed tier, odd edges
	} {
		rng := rand.New(rand.NewSource(int64(s.m*31 + s.k*7 + s.n)))
		x := randMat(rng, s.m, s.k)
		w := randMat(rng, s.n, s.k)
		bias := make([]float64, s.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		for _, act := range allActs {
			want := New(s.m, s.n)
			MatMulTransB(want, x, w)
			for i := 0; i < s.m; i++ {
				row := want.Data[i*s.n : (i+1)*s.n]
				for j, bv := range bias {
					row[j] += bv
				}
			}
			applyActRef(want.Data, act)
			got := New(s.m, s.n)
			label := fmt.Sprintf("LinearForward %dx%dx%d act=%d", s.m, s.k, s.n, act)
			assertBitwise(t, label, func() *Tensor {
				LinearForward(got, x, w, bias, act)
				return got
			})
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: differs from unfused at %d", label, i)
				}
			}
		}
	}
}

// TestConvGemmMatchesIm2ColGemm checks the fused conv forward (both the
// serial and the column-parallel form) against the materialized
// Im2Col + MatMul + bias + activation pipeline, bitwise, over assorted
// geometries including padding, stride, and rectangular kernels.
func TestConvGemmMatchesIm2ColGemm(t *testing.T) {
	cases := []struct {
		c, h, w, outC int
		g             ConvGeom
	}{
		{1, 5, 5, 2, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}},
		{3, 13, 11, 8, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
		{2, 12, 9, 5, ConvGeom{KH: 2, KW: 5, SH: 2, SW: 1, PH: 0, PW: 2}},
		{4, 16, 16, 16, ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2}},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		img := New(tc.c, tc.h, tc.w)
		img.FillRandn(rng, 0, 1)
		kr := tc.c * tc.g.KH * tc.g.KW
		wmat := randMat(rng, tc.outC, kr)
		bias := make([]float64, tc.outC)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		oh, ow := tc.g.OutSize(tc.h, tc.w)
		p := oh * ow
		cols := New(kr, p)
		Im2Col(cols, img, tc.g)
		for _, act := range allActs {
			want := New(tc.outC, p)
			MatMul(want, wmat, cols)
			for r := 0; r < tc.outC; r++ {
				row := want.Data[r*p : (r+1)*p]
				for j := range row {
					row[j] += bias[r]
				}
			}
			applyActRef(want.Data, act)

			got := make([]float64, tc.outC*p)
			ConvGemmBiasActInto(got, wmat.Data, img.Data, tc.c, tc.h, tc.w, tc.g, tc.outC, bias, act)
			label := fmt.Sprintf("ConvGemm case=%d act=%d", ci, act)
			for i := range want.Data {
				if got[i] != want.Data[i] {
					t.Fatalf("%s: serial fused differs from im2col pipeline at %d", label, i)
				}
			}

			// Column-parallel form: bitwise equal to the serial form at
			// every worker count.
			par := New(tc.outC, p)
			assertBitwise(t, label+" parallel", func() *Tensor {
				ConvGemmBiasAct(par.Data, wmat.Data, img.Data, tc.c, tc.h, tc.w, tc.g, tc.outC, bias, act)
				return par
			})
			for i := range want.Data {
				if par.Data[i] != want.Data[i] {
					t.Fatalf("%s: parallel fused differs from im2col pipeline at %d", label, i)
				}
			}
		}
	}
}

// TestConvGradWeightRowsMatchesIm2Col holds the conv weight gradient that
// packs its panels from the image to MatMulAccTransBRows on the
// materialized im2col matrix, bitwise: shapes on both sides of the packed
// tier, a padded tail panel of taps, padding and stride, uneven row
// shards, spiked operands and a dW that already holds a sum, under both
// FastKernels settings.
func TestConvGradWeightRowsMatchesIm2Col(t *testing.T) {
	cases := []struct {
		c, h, w, outC int
		g             ConvGeom
	}{
		{1, 5, 5, 2, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}},
		{3, 16, 16, 16, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}},               // packed, 27 taps: a tail panel
		{16, 7, 7, 33, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}},                // packed, odd outC
		{32, 2, 2, 32, ConvGeom{KH: 2, KW: 2, SH: 1, SW: 1}},                // one output pixel
		{3, 13, 11, 8, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},  // packed, padded
		{2, 12, 9, 9, ConvGeom{KH: 2, KW: 5, SH: 2, SW: 1, PH: 0, PW: 2}},   // strided, padded one way
		{4, 16, 16, 16, ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2}}, // packed, two slabs of pixels
		{5, 9, 9, 12, ConvGeom{KH: 3, KW: 3, SH: 2, SW: 2}},                 // packed, strided, unpadded
	}
	for _, fast := range []bool{false, true} {
		withFastKernels(fast, func() {
			for ci, tc := range cases {
				for spike := 0; spike < 3; spike++ {
					rng := rand.New(rand.NewSource(int64(40*spike + ci)))
					oh, ow := tc.g.OutSize(tc.h, tc.w)
					p, kr := oh*ow, tc.c*tc.g.KH*tc.g.KW
					img := spiked(rng, tc.c, tc.h*tc.w, spike).Data
					gout := spiked(rng, tc.outC, p, spike).Data
					seed := spiked(rng, tc.outC, kr, spike).Data
					cols := make([]float64, kr*p)
					Im2ColInto(cols, img, tc.c, tc.h, tc.w, tc.g)
					tile := make([]float64, tc.outC*kr)
					cut := tc.outC / 3
					want := append([]float64(nil), seed...)
					MatMulAccTransBRows(want, gout, cols, p, kr, 0, cut, tile)
					MatMulAccTransBRows(want, gout, cols, p, kr, cut, tc.outC, tile)
					got := append([]float64(nil), seed...)
					ConvGradWeightRows(got, gout, img, tc.c, tc.h, tc.w, tc.g, 0, cut, tile)
					ConvGradWeightRows(got, gout, img, tc.c, tc.h, tc.w, tc.g, cut, tc.outC, tile)
					mustMatch(t, fmt.Sprintf("case %d (p=%d kr=%d) fast=%v spike=%d", ci, p, kr, fast, spike), got, want)
				}
			}
		})
	}
}

// TestGemmSteadyStateAllocs pins the pooled-scratch guarantee: after
// warmup, the packed-tier entry points allocate nothing on the serial
// path (the path every conv sample shard and every workers=1 run takes).
func TestGemmSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 64, 64)
	b := randMat(rng, 64, 64)
	dst := New(64, 64)
	bias := make([]float64, 64)

	cases := []struct {
		name string
		fn   func()
	}{
		{"MatMul", func() { MatMul(dst, a, b) }},
		{"MatMulTransB", func() { MatMulTransB(dst, a, b) }},
		{"LinearForward", func() { LinearForward(dst, a, b, bias, ActReLU) }},
	}
	img := New(3, 16, 16)
	img.FillRandn(rng, 0, 1)
	g := ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2}
	wmat := randMat(rng, 16, 3*25)
	convDst := make([]float64, 16*16*16)
	convBias := make([]float64, 16)
	cases = append(cases, struct {
		name string
		fn   func()
	}{"ConvGemmBiasActInto", func() {
		ConvGemmBiasActInto(convDst, wmat.Data, img.Data, 3, 16, 16, g, 16, convBias, ActReLU)
	}})

	for _, tc := range cases {
		tc.fn() // warm the scratch pool
		if allocs := testing.AllocsPerRun(10, tc.fn); allocs > 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}
